//! Performance ledger for the what-if sweep service: end-to-end latency of
//! three workloads, and a traced run that splits them by layer.
//!
//! ```text
//! perfbench --workload cold_suite|warm_suite|service_mixed --seed N --seconds S --trace 0|1
//! perfbench --record-reference
//! ```
//!
//! `--trace 0` measures the workload for `--seconds` and reports its
//! end-to-end metrics; `--trace 1` runs the per-layer profile instead. The
//! last line of stdout is the JSON result; the lines before it are the
//! human-readable ledger. `--record-reference` rewrites
//! `perfbench/reference.json` from the current tree. See `README.md`.

mod common;
mod layers;
mod replica;
mod sha256;
mod span;
mod workloads;

use common::{metric, print_result, WorkDir, REFERENCE_REQUESTS};
use std::path::Path;
use std::time::Duration;

/// Scratch space under the checkout root (ignored by git).
pub const WORK_ROOT: &str = ".perfbench_work";
/// Hard cap on one run; the watchdog fails the run past it.
const RUN_LIMIT: Duration = Duration::from_secs(170);

const WORKLOADS: [&str; 3] = ["cold_suite", "warm_suite", "service_mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        if flag == "--record-reference" {
            return Ok(None);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err(bad("a number of seconds in (0, 120]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (known: {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// Which end-to-end metric each per-layer metric should move.
fn moves(name: &str) -> &'static str {
    let prefix = name.split('.').next().unwrap_or(name);
    match (prefix, name) {
        (_, "job.fig07_latency_s") => "short_p50_ms (mainly), cold_suite_s",
        ("des" | "tracegen" | "sched" | "monitor" | "job", _) => {
            "cold_suite_s, short_*, background_jobs_per_s; not warm_*"
        }
        (_, "cache.append_s" | "cache.commit_s") => "cold_suite_s (small share)",
        ("cache" | "aggregate" | "render", _) => "warm_*",
        (_, "service.start_s" | "service.submit_s" | "service.shutdown_s") => "warm_*",
        ("pool", _) => "cold_suite_s",
        (_, "service.short_inproc_p50_ms") => "short_*",
        ("wire", _) => "short_* only",
        ("tracing", _) => "none (traced vs untraced fig01 replay)",
        ("costs", _) => "none (staleness of ci/sweep_costs.json)",
        _ => "",
    }
}

/// Write `reference.json`: the digest of each reference request's
/// artifact, produced by the current tree.
fn record_reference() -> Result<(), String> {
    let mut entries = Vec::new();
    for name in REFERENCE_REQUESTS {
        let out = workloads::in_process_sweep(None, &common::reference_request(name))?;
        entries.push(format!(
            "  \"{name}\": {{\"sha256\": \"{}\", \"bytes\": {}}}",
            sha256::hex_digest(out.artifact.as_bytes()),
            out.artifact.len()
        ));
    }
    let path = Path::new("perfbench/reference.json");
    std::fs::write(path, format!("{{\n{}\n}}\n", entries.join(",\n")))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            if let Err(e) = record_reference() {
                eprintln!("perfbench: {e}");
                std::process::exit(2);
            }
            return;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work_dir = Path::new(WORK_ROOT).join(format!("{}-{}", args.workload, std::process::id()));
    common::start_watchdog(RUN_LIMIT, work_dir.clone());
    let work = WorkDir::new(work_dir);
    println!(
        "[perfbench] workload={} seed={} seconds={} trace={} threads={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        common::threads()
    );

    let correct = if args.trace {
        let metrics = layers::profile(args.seed, &work);
        for m in &metrics {
            println!(
                "{:<34} {:>16.6} {:<8} moves {}",
                m.name,
                m.value,
                m.unit,
                moves(&m.name)
            );
        }
        print_result(&[], &metrics)
    } else {
        let (ledger, metrics) = match args.workload.as_str() {
            "cold_suite" => workloads::cold_suite(&work, args.seconds),
            "warm_suite" => workloads::warm_suite(&work, args.seconds),
            _ => workloads::service_mixed(args.seed, args.seconds),
        };
        let mut ledger = ledger;
        ledger.push(metric("threads", common::threads() as f64, "count"));
        print_result(&ledger, &metrics)
    };
    drop(work);
    std::process::exit(if correct { 0 } else { 1 });
}
