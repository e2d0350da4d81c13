//! The sweep memoization cache's contract: a cache hit is
//! indistinguishable from a live run (bit-exact metrics, byte-identical
//! artifacts), hits never pollute the LPT cost table, concurrent sweeps
//! over one cache directory never tear or duplicate entries, and an
//! engine-salt bump invalidates — and garbage-collects — every prior
//! entry.

use proptest::prelude::*;
use scenarios::{
    engine_salt, job_key, CacheStats, CostTable, JobOrder, Metrics, ParamValue, Params, Registry,
    ResultCache, Scenario, Service, ServiceConfig, SweepRequest, SweepResult, SweepStatus,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Fresh per-test cache directory under cargo's integration-test tmpdir.
fn cache_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "sweep-cache-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A deterministic scenario whose metrics depend on (params, seed) and
/// deliberately include the floats most likely to betray a formatting
/// round-trip: negative zero, a one-ULP offset, and a 17-significant-digit
/// accumulation.
struct Probe;

impl Scenario for Probe {
    fn name(&self) -> &'static str {
        "cache_probe"
    }
    fn title(&self) -> &'static str {
        "memoization probe"
    }
    fn default_params(&self) -> Params {
        Params::new().with("k", 1u64).with("x", 0.5)
    }
    fn run(&self, sim: &mut des::Simulation, params: &Params) -> Metrics {
        let k = params.u64("k", 1);
        let mut sum = 0.0f64;
        for i in 0..(k * 7 + 3) {
            sum += sim.stream(&format!("draw{i}")).f64() * params.f64("x", 0.5);
        }
        let mut m = Metrics::new();
        m.push("sum", sum);
        m.push("seed_draw", sim.stream("tail").f64());
        m.push("neg_zero", -0.0);
        m.push("ulp", f64::from_bits(sum.to_bits() + 1));
        m
    }
}

/// The probe's 3-point request: `k ∈ {1, 2, 3}` at `seeds` seeds
/// (`42, 43, …`).
fn request(seeds: usize) -> SweepRequest {
    SweepRequest::new()
        .scenario("cache_probe")
        .axis("k", vec![1u64, 2, 3])
        .with_seeds(seeds)
}

fn registry(scenario: impl Scenario + 'static) -> Registry {
    let mut registry = Registry::new();
    registry.register(Box::new(scenario));
    registry
}

/// What one service run left behind: its results, its cache counters and
/// the wall-clocks it measured.
struct Run {
    results: Vec<SweepResult>,
    stats: Option<CacheStats>,
    observed: CostTable,
}

/// Run `request` to completion on a fresh service (with the cache at
/// `dir`, when given). Errs with the failure message.
fn run_on(
    registry: Registry,
    threads: usize,
    dir: Option<&Path>,
    request: &SweepRequest,
) -> Result<Run, String> {
    let mut config = ServiceConfig::new().with_threads(threads);
    if let Some(dir) = dir {
        config = config.with_cache_dir(dir);
    }
    let service = Service::start(registry, config).expect("service starts");
    let id = service.submit(request).expect("valid request").id;
    match service.wait(id).expect("known id").status {
        SweepStatus::Done => Ok(Run {
            results: service.results(id).expect("done request has results"),
            stats: service.cache_stats(),
            observed: service.observed_costs(),
        }),
        SweepStatus::Failed { message } => Err(message),
        other => panic!("unexpected terminal status {other}"),
    }
}

fn cached(threads: usize, dir: &Path, request: &SweepRequest) -> Run {
    run_on(registry(Probe), threads, Some(dir), request).expect("cached sweep succeeds")
}

/// The uncached serial reference: one worker, natural job order.
fn serial(request: &SweepRequest) -> SweepResult {
    let request = request.clone().with_order(JobOrder::Input);
    let mut run = run_on(registry(Probe), 1, None, &request).expect("serial sweep succeeds");
    run.results.pop().expect("one scenario")
}

/// Populate the cache at `dir` under `salt` directly — the one store
/// `ServiceConfig` cannot reach — with every job of `request`, computed by
/// running the probe on a fresh simulation. Returns the store's counters
/// after the commit.
fn populate(dir: &Path, salt: &str, request: &SweepRequest) -> CacheStats {
    let mut cache = ResultCache::open_with_salt(dir, salt).expect("open");
    let writer = cache.writer().expect("segment");
    for_each_job(request, |params, seed| {
        let metrics = Probe.run(&mut des::Simulation::new(seed), params);
        let key = job_key(salt, "cache_probe", params, seed);
        writer
            .append(&key, "cache_probe", 0.0, &metrics)
            .expect("append");
    });
    cache.commit(vec![writer]).expect("commit");
    cache.stats()
}

/// Visit every `(params, seed)` job of a probe request in input order.
fn for_each_job(request: &SweepRequest, mut visit: impl FnMut(&Params, u64)) {
    let registry = registry(Probe);
    let validated = request.validate(&registry).expect("valid request");
    for (scenario, grid) in validated.resolve(&registry) {
        for params in grid.points(&scenario.default_params()) {
            for &seed in &validated.seeds {
                visit(&params, seed);
            }
        }
    }
}

/// Look every job of `request` up under `salt`, returning the store's
/// counters afterwards.
fn lookup_all(dir: &Path, salt: &str, request: &SweepRequest) -> CacheStats {
    let mut cache = ResultCache::open_with_salt(dir, salt).expect("open");
    for_each_job(request, |params, seed| {
        cache.lookup(&job_key(salt, "cache_probe", params, seed));
    });
    cache.stats()
}

#[test]
fn warm_sweep_is_bit_identical_and_fully_cache_served() {
    let dir = cache_dir("roundtrip");
    let request = request(2);

    let cold = cached(4, &dir, &request);
    let cold_stats = cold.stats.expect("cache attached");
    assert_eq!(cold_stats.hits, 0);
    assert_eq!(cold_stats.misses, 6, "3 points x 2 seeds all simulated");
    assert_eq!(cold_stats.entries, 6, "every miss persisted at commit");

    let warm = cached(4, &dir, &request);
    let warm_stats = warm.stats.expect("cache attached");
    assert_eq!(warm_stats.hits, 6, "warm run must be 100% cache-served");
    assert_eq!(warm_stats.misses, 0);
    assert!(
        warm_stats.saved_secs >= 0.0 && warm_stats.saved_secs.is_finite(),
        "saved wall-clock is a finite credit"
    );

    // The acceptance bar: cache-served results are bit-exact to live ones,
    // so the emitted artifact cannot tell the difference.
    assert!(
        warm.results[0].bits_eq(&cold.results[0]),
        "cached sweep diverged from live sweep"
    );
    assert!(
        serial(&request).bits_eq(&warm.results[0]),
        "cached sweep diverged from serial live"
    );
}

#[test]
fn every_cached_metric_round_trips_bits_exactly() {
    let dir = cache_dir("bits");
    let live = cached(2, &dir, &request(3)).results;

    // Reopen from disk and look every (point, seed) job up directly: the
    // stored metrics must be bits_eq to the live ones, metric by metric.
    let mut cache = ResultCache::open(&dir).expect("reopen");
    let salt = cache.salt().to_string();
    for point in &live[0].points {
        for (seed, live_metrics) in &point.per_seed {
            let key = job_key(&salt, "cache_probe", &point.params, *seed);
            let cached = cache.lookup(&key).unwrap_or_else(|| {
                panic!(
                    "missing cache entry for {} seed {seed}",
                    point.params.label()
                )
            });
            assert!(
                cached.bits_eq(live_metrics),
                "cached metrics for {} seed {seed} are not bit-exact",
                point.params.label()
            );
        }
    }
}

#[test]
fn cache_hits_record_no_cost_observations() {
    let dir = cache_dir("costs");
    let request = request(2);

    let cold = cached(2, &dir, &request);
    assert!(
        !cold.observed.is_empty(),
        "cold run measures every point shape"
    );

    // The warm run executes nothing, so it must observe nothing: cache
    // hits would otherwise drag the CI-refreshed LPT cost table toward
    // zero and wreck longest-expected-first ordering.
    let warm = cached(2, &dir, &request);
    assert!(
        warm.observed.is_empty(),
        "a fully cache-served sweep recorded cost observations: {:?}",
        warm.observed
    );
    assert_eq!(warm.stats.expect("stats").misses, 0);
}

#[test]
fn salt_bump_invalidates_every_entry_and_garbage_collects() {
    let dir = cache_dir("salt");
    let request = request(2);
    let n_jobs = 6;

    assert_eq!(populate(&dir, "engine-v1", &request).entries, n_jobs);

    // Same tree, bumped salt: every prior entry is ignored (full miss)...
    let stats = lookup_all(&dir, "engine-v2", &request);
    assert_eq!(stats.hits, 0, "salt bump must invalidate every entry");
    assert_eq!(stats.misses, n_jobs);
    assert_eq!(stats.stale_dropped, n_jobs, "old entries seen and skipped");

    // ...and the commit's index rewrite garbage-collects them.
    populate(&dir, "engine-v2", &request);
    let index = std::fs::read_to_string(dir.join("index.v1.log")).expect("index");
    assert!(
        !index.contains("engine-v1"),
        "stale-salt entries survived the rewrite"
    );
    assert!(index.contains("engine-v2"));
    let reopened_v1 = ResultCache::open_with_salt(&dir, "engine-v1").expect("reopen v1");
    assert_eq!(reopened_v1.len(), 0, "v1 entries are gone, not just hidden");
    let reopened_v2 = ResultCache::open_with_salt(&dir, "engine-v2").expect("reopen v2");
    assert_eq!(reopened_v2.len(), n_jobs as usize);
}

#[test]
fn warm_cache_survives_bit_identical_engine_changes() {
    // The inverse contract of the salt-bump tests: an internal refactor
    // that provably keeps simulation outputs bit-identical (the indexed
    // scheduler: oracle property tests + an unchanged ci/trace_reference
    // artifact) ships with NO salt change, and caches populated before the
    // change keep hitting after it. The literal string below is the salt as
    // it stood before the scheduler was indexed; if engine_salt() drifts
    // from it, either a version/rev was bumped for a bit-identical change
    // (revert the bump) or semantics actually changed (then this test and
    // ci/trace_reference.json must be updated together, deliberately).
    let pre_change_salt = "des=0.1.0|cluster=0.1.0|scenarios=0.1.0|rev=1";
    assert_eq!(
        engine_salt(),
        pre_change_salt,
        "engine salt changed — bit-identical refactors must leave it alone"
    );

    let dir = cache_dir("warmsurvives");
    let request = request(2);
    // Populate the store under the pinned pre-change salt...
    assert_eq!(populate(&dir, pre_change_salt, &request).entries, 6);

    // ...and re-sweep under the wired engine_salt(): every entry must hit.
    let stats = cached(2, &dir, &request).stats.expect("stats");
    assert_eq!(stats.hits, 6, "pre-change entries must survive the upgrade");
    assert_eq!(stats.misses, 0);
    assert_eq!(stats.stale_dropped, 0, "nothing may be treated as stale");
}

#[test]
fn engine_salt_bump_misses_against_a_real_version_salt() {
    // The wired salt: a cache populated under engine_salt() full-misses
    // once the salt gains a suffix — exactly what a des/cluster/scenarios
    // version bump or an ENGINE_SALT_REV bump does.
    let dir = cache_dir("realsalt");
    let request = request(1);
    assert_eq!(cached(1, &dir, &request).stats.expect("stats").entries, 3);

    let bumped_salt = format!("{}+semantics-changed", engine_salt());
    let stats = lookup_all(&dir, &bumped_salt, &request);
    assert_eq!(stats.hits, 0, "version-salt bump must force a full miss");
    assert_eq!(stats.misses, 3);
}

#[test]
fn failed_sweeps_leave_recoverable_segments_not_a_corrupt_index() {
    struct Grenade;
    impl Scenario for Grenade {
        fn name(&self) -> &'static str {
            "cache_grenade"
        }
        fn title(&self) -> &'static str {
            "panics on k=2"
        }
        fn default_params(&self) -> Params {
            Params::new().with("k", 1u64)
        }
        fn run(&self, sim: &mut des::Simulation, params: &Params) -> Metrics {
            assert!(params.u64("k", 0) != 2, "boom");
            let mut m = Metrics::new();
            m.push("draw", sim.stream("d").f64());
            m
        }
    }
    let grenade = |ks: Vec<u64>| {
        SweepRequest::new()
            .scenario("cache_grenade")
            .axis("k", ks)
            .with_seeds(1)
    };

    let dir = cache_dir("failure");
    let message = run_on(registry(Grenade), 2, Some(&dir), &grenade(vec![1, 2, 3]))
        .err()
        .expect("k=2 panics");
    assert!(message.contains("point `k=2`"), "{message}");
    // No commit happened: the index holds nothing yet, but the surviving
    // jobs' WAL segment is recovered at the next open.
    assert!(!dir.join("index.v1.log").exists(), "failed sweep committed");
    let recovered = ResultCache::open(&dir).expect("reopen");
    assert_eq!(
        recovered.len(),
        2,
        "k=1 and k=3 results recovered from write-ahead segments"
    );

    // The recovered entries serve a successful follow-up sweep's hits.
    let retry =
        run_on(registry(Grenade), 2, Some(&dir), &grenade(vec![1, 3])).expect("retry succeeds");
    let stats = retry.stats.expect("stats");
    assert_eq!(stats.hits, 2);
    assert_eq!(stats.misses, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Two services over the same job set race on one cache directory
    /// across 2–8 worker threads each. Whatever the interleaving: both emit
    /// bit-identical results to serial, and the merged index ends up with
    /// exactly one well-formed line per job — no torn writes, no
    /// duplicates.
    #[test]
    fn concurrent_sweeps_never_tear_or_duplicate_cache_entries(
        x in 1u64..100_000,
        threads_a in 2usize..9,
        threads_b in 2usize..9,
    ) {
        let dir = cache_dir("concurrent");
        // `x` stands in for the seed list a request cannot vary: each case
        // sweeps different job contents.
        let request = SweepRequest::new()
            .scenario("cache_probe")
            .axis("k", vec![1u64, 2, 3, 4])
            .param("x", ParamValue::F64(x as f64 / 1000.0))
            .with_seeds(2);
        let n_jobs = 8usize;

        let serial = serial(&request);

        let (res_a, res_b) = std::thread::scope(|scope| {
            let a = scope.spawn(|| cached(threads_a, &dir, &request));
            let b = scope.spawn(|| cached(threads_b, &dir, &request));
            (a.join().expect("sweep a"), b.join().expect("sweep b"))
        });
        prop_assert!(res_a.results[0].bits_eq(&serial), "racing sweep A diverged");
        prop_assert!(res_b.results[0].bits_eq(&serial), "racing sweep B diverged");

        // The committed index: one parseable line per job, every key unique.
        let index = std::fs::read_to_string(dir.join("index.v1.log")).expect("index");
        let lines: Vec<&str> = index.lines().collect();
        prop_assert_eq!(lines.len(), n_jobs, "one line per job, no duplicates");
        for line in &lines {
            prop_assert!(line.starts_with("v1\t"), "malformed line: {line:?}");
        }
        let reloaded = ResultCache::open(&dir).expect("reopen");
        prop_assert_eq!(
            reloaded.len(),
            n_jobs,
            "every line parses back (torn lines would be dropped)"
        );

        // And the racing runs' combined WAL must leave nothing behind that
        // a warm sweep cannot serve: a third run is fully cache-served.
        let warm = cached(4, &dir, &request);
        prop_assert!(warm.results[0].bits_eq(&serial));
        let stats = warm.stats.expect("stats");
        prop_assert_eq!(stats.misses, 0, "warm run after the race must fully hit");
    }
}
