//! # cluster — SLURM-like batch system substrate
//!
//! Models the aggregated HPC system the paper targets: nodes with cores,
//! memory and GPUs; a FCFS + EASY-backfill scheduler with exclusive and
//! shared (`--shared` / oversubscription partition) allocations and GRES
//! tracking for GPUs; a workload trace generator calibrated to the Piz Daint
//! March-2022 statistics of Fig. 1; a 2-minute sampling monitor reproducing
//! the paper's idle-CPU / free-memory / idle-period measurements; and a
//! core-hour billing ledger used by the Fig. 10 utilization comparison.

/// This crate's version, folded into the sweep result cache's engine salt:
/// scheduler/trace semantics changes ship as version bumps, which must
/// invalidate memoized simulation results.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

pub mod billing;
pub(crate) mod index;
pub mod job;
pub mod monitor;
pub mod node;
/// The pre-index scan scheduler and scan utilization sampler, kept verbatim
/// as correctness oracles for property tests and like-for-like baselines
/// for the `cluster_sched` bench (`--features oracle`).
#[cfg(any(test, feature = "oracle"))]
pub mod reference;
pub mod scheduler;
pub mod trace;

#[cfg(test)]
mod oracle_tests;

pub use billing::{BillingLedger, BillingPolicy};
pub use fabric::NodeId;
pub use job::{Job, JobId, JobSpec, JobState};
pub use monitor::{IdlePeriodStats, MonitorReport, UtilizationMonitor};
pub use node::{Node, NodeResources, NodeState};
pub use scheduler::{Cluster, SchedulerError};
pub use trace::{simulate_trace, simulate_trace_in, TraceOutcome, TraceProfile};
