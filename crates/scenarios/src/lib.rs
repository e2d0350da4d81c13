//! # scenarios — unified scenario engine and the what-if sweep service
//!
//! Every figure/table experiment of the paper's evaluation is expressed as a
//! [`Scenario`]: a named, parameterised computation that runs against a
//! deterministic [`des::Simulation`] and returns scalar [`Metrics`]. The
//! [`registry::Registry`] knows every scenario. A [`SweepRequest`] names
//! scenarios, a cartesian grid and a seed count; the [`Service`] runs it on
//! its persistent work-stealing pool (each job owns its own `Simulation`,
//! so results are bit-identical to a serial run), optionally memoized by
//! the [`ResultCache`], and merges the per-seed metrics into mean/p50/p99
//! aggregates with confidence intervals, ready for JSON emission. The CLI,
//! the TCP [`Server`] and in-process callers all submit to the same
//! `Service`.
//!
//! ```
//! use scenarios::{JobOrder, Registry, Service, ServiceConfig, SweepRequest};
//!
//! let run = |threads: usize, request: &SweepRequest| {
//!     let config = ServiceConfig::new().with_threads(threads);
//!     let service = Service::start(Registry::standard(), config).unwrap();
//!     let id = service.submit(request).unwrap().id;
//!     service.wait(id).unwrap();
//!     service.results(id).unwrap()
//! };
//! let request = SweepRequest::new().scenario("tab03_idle_node").with_seeds(3);
//! let parallel = run(2, &request);
//! assert_eq!(parallel[0].points.len(), 1);
//! assert_eq!(parallel[0].points[0].per_seed.len(), 3);
//!
//! let serial = run(1, &request.with_order(JobOrder::Input));
//! assert!(parallel[0].bits_eq(&serial[0]), "parallel == serial, bit for bit");
//! ```

pub mod cache;
pub mod cost;
pub mod error;
pub mod metrics;
pub mod paper;
pub mod params;
pub mod registry;
pub mod report;
pub mod request;
pub mod runner;
pub mod scenarios;
pub mod server;
pub mod service;
pub mod wire;

pub use cache::{engine_salt, job_key, CacheKey, CacheStats, CacheWriter, ResultCache};
pub use cost::CostTable;
pub use error::Error;
pub use metrics::{summarize, MetricSummary, Metrics};
pub use params::{ParamValue, Params, SweepGrid};
pub use registry::Registry;
pub use request::{SweepRequest, SweepResponse, SweepStatus, ValidatedSweep, REQUEST_VERSION};
pub use runner::{JobOrder, PointResult, SweepResult, SweepSuite};
pub use server::Server;
pub use service::{Service, ServiceConfig, Submission};
pub use wire::{Client, SubmitReceipt};

use des::Simulation;

/// Root seed the single-run paper reports use — the value every original
/// figure binary hard-coded, kept so the printed numbers stay identical.
pub const REPORT_SEED: u64 = 42;

/// One declarative experiment from the paper's evaluation.
///
/// Implementations must be pure functions of `(params, sim.seed())`: all
/// randomness is drawn from streams derived off the passed simulation, so a
/// run is bit-reproducible regardless of which thread executes it.
pub trait Scenario: Send + Sync {
    /// Stable registry key, e.g. `"fig07_latency"`.
    fn name(&self) -> &'static str;

    /// One-line caption (the banner headline).
    fn title(&self) -> &'static str;

    /// Tunable parameters with their default values. The defaults reproduce
    /// the paper's setup; sweeps override a subset via [`SweepGrid`].
    fn default_params(&self) -> Params {
        Params::new()
    }

    /// Run once against `sim` (fresh, seeded by the caller) and return the
    /// scenario's scalar metrics.
    fn run(&self, sim: &mut Simulation, params: &Params) -> Metrics;

    /// Print the full paper-style report (tables, comparisons, shape
    /// assertions) for a single default-parameter run — what `scenarios
    /// report <name>` prints. The default implementation prints the
    /// metric map; ported scenarios override it with their original output.
    fn report(&self) {
        report::banner(self.name(), self.title());
        let params = self.default_params();
        let mut sim = Simulation::new(REPORT_SEED);
        let m = self.run(&mut sim, &params);
        let rows: Vec<Vec<String>> = m
            .iter()
            .map(|(k, v)| vec![k.to_string(), report::fmt(v)])
            .collect();
        report::print_table("Metrics", &["metric", "value"], &rows);
    }
}
