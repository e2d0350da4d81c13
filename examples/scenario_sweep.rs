//! Sweep a registered scenario over a parameter grid and several seeds,
//! in parallel, and print the aggregated metrics — the programmatic face of
//! the `scenarios run` CLI, submitted to an in-process sweep service.
//!
//! ```sh
//! cargo run --release --example scenario_sweep
//! ```

use hpc_serverless_disagg::scenarios::report::fmt;
use hpc_serverless_disagg::scenarios::{
    JobOrder, Registry, Service, ServiceConfig, SweepRequest, SweepResult,
};

/// Run `request` on a fresh `threads`-worker service and return its result.
fn sweep(threads: usize, request: &SweepRequest) -> SweepResult {
    let config = ServiceConfig::new().with_threads(threads);
    let service = Service::start(Registry::standard(), config).expect("service starts");
    let id = service.submit(request).expect("valid request").id;
    let response = service.wait(id).expect("known request");
    assert!(response.status.is_terminal());
    let mut results = service
        .results(id)
        .unwrap_or_else(|e| panic!("sweep failed: {e}"));
    results.pop().expect("one scenario requested")
}

fn main() {
    // 3 repetition counts × 4 seeds = 12 simulations, fanned over 4 workers.
    let request = SweepRequest::new()
        .scenario("fig09_cpu_sharing")
        .axis("reps", vec![5u64, 10, 20])
        .with_seeds(4);
    let result = sweep(4, &request);

    println!(
        "swept `{}` over {} points × {} seeds:",
        result.scenario,
        result.points.len(),
        result.seeds.len()
    );
    for point in &result.points {
        println!("\nparams: {}", point.params.label());
        for (name, s) in &point.summary {
            println!(
                "  {:<28} mean {} ± {} (p50 {}, p99 {})",
                name,
                fmt(s.mean),
                fmt(s.ci95),
                fmt(s.p50),
                fmt(s.p99)
            );
        }
    }

    // Determinism: the same sweep on one thread, in input order, is
    // bit-identical.
    let serial = sweep(1, &request.with_order(JobOrder::Input));
    assert!(result.bits_eq(&serial), "parallel == serial, bit for bit");
    println!("\nparallel run matches serial run bit-for-bit ✔");
}
