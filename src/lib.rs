//! # hpc-serverless-disagg
//!
//! Umbrella crate of the reproduction of *"Software Resource Disaggregation
//! for HPC with Serverless Computing"* (Copik et al., IPDPS 2024). It
//! re-exports every subsystem so examples and downstream users need a single
//! dependency:
//!
//! * [`rfaas`] — the HPC FaaS platform (the paper's contribution)
//! * [`scenarios`] — declarative figure/table experiments + the parallel
//!   multi-seed sweep service (`scenarios run --all`, `scenarios serve`)
//! * [`cluster`] — SLURM-like batch system + Piz Daint trace generator
//! * [`fabric`] — RDMA-like interconnect with LogGP cost model
//! * [`containers`] — HPC sandbox runtimes + warm pool
//! * [`storage`] — Lustre / object-store models
//! * [`gpu`] — GPU device model + Rodinia workloads
//! * [`interference`] — contention model + co-location policies
//! * [`minimpi`] — in-process MPI with elastic ranks
//! * [`apps`] — real mini-app kernels (NAS, LULESH, MILC, Black-Scholes,
//!   OpenMC, Rodinia)
//! * [`des`] — deterministic discrete-event simulation kernel
//!
//! Start with `examples/quickstart.rs`.

pub use apps;
pub use cluster;
pub use containers;
pub use des;
pub use fabric;
pub use gpu;
pub use interference;
pub use minimpi;
pub use rfaas;
pub use scenarios;
pub use storage;
