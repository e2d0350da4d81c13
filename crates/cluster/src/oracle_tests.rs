//! Oracle property tests: the indexed scheduler must make bit-identical
//! decisions to the frozen scan implementation ([`crate::reference`]) under
//! arbitrary interleavings of arrivals, completions, and cancellations on a
//! heterogeneous (multi-capacity-class) cluster, for shared and exclusive
//! jobs alike. "Bit-identical" here means every observable the simulation
//! driver consumes: the started-job sequence and ended idle periods returned
//! by each `try_schedule`, the pending/idle/running counts, every job's
//! state and timestamps, and `next_completion`.
//!
//! The same op stream also drives the utilization sampler: after every op
//! the cluster's aggregates (`core_usage`, `memory_usage`,
//! `idle_node_count`, the `idle_nodes` set) must equal a direct scan over
//! the nodes, including while `node_mut` has left the index dirty, and at
//! the end the incremental [`UtilizationMonitor`] and the frozen scan
//! sampler [`RefMonitor`] must report the same bits.
//!
//! These tests are unit tests (not integration tests) on purpose: the
//! reference module is `cfg(any(test, feature = "oracle"))`, and unit tests
//! see it without requiring callers to enable the feature.

use crate::reference::{report_bits, RefCluster, RefMonitor};
use crate::scheduler::Cluster;
use crate::{JobId, JobSpec, Node, NodeResources, UtilizationMonitor};
use des::SimTime;
use fabric::NodeId;
use proptest::prelude::*;

/// Three capacity classes: multicore, GPU, and a fat-memory variant — so
/// class partitioning, the k-way class merge, and per-class shadow sets all
/// participate.
fn hetero_nodes(mc: usize, gpu: usize, fat: usize) -> Vec<Node> {
    let fat_cap = NodeResources {
        cores: 36,
        memory_mb: 256 * 1024,
        gpus: 0,
    };
    (0..mc)
        .map(|_| NodeResources::daint_mc())
        .chain((0..gpu).map(|_| NodeResources::daint_gpu()))
        .chain((0..fat).map(|_| fat_cap))
        .enumerate()
        .map(|(i, cap)| Node::new(NodeId(i as u32), cap))
        .collect()
}

#[derive(Debug, Clone)]
enum Op {
    /// Submit a job and run a scheduling pass.
    Submit { spec: JobSpec, actual_mins: u64 },
    /// Finish the earliest-completing running job (if any), then schedule.
    FinishEarliest,
    /// Cancel the `k % submitted`-th job regardless of its state, then
    /// schedule — exercises pending tombstones and running release.
    Cancel { k: usize },
    /// Let simulated time pass before the next op.
    Advance { mins: u64 },
    /// Take a utilization sample on both monitors.
    Sample,
    /// Mark the `k % nodes`-th node down through `node_mut` (dirties the
    /// index until the next scheduling pass).
    SetDown { k: usize },
    /// Mark the `k % nodes`-th node draining through `node_mut`.
    Drain { k: usize },
}

fn arb_spec() -> impl Strategy<Value = JobSpec> {
    (
        1u32..6,   // nodes
        0usize..4, // shape selector
        5u64..600, // walltime minutes
        any::<bool>(),
    )
        .prop_map(|(nodes, shape, wall, shared)| {
            // Shapes chosen to fit one, two, or all three capacity classes,
            // and (for shared) to leave room for co-location.
            let per_node = match shape {
                0 => NodeResources {
                    cores: 9,
                    memory_mb: 16 * 1024,
                    gpus: 0,
                }, // fits everywhere, shares 4-way
                1 => NodeResources::daint_mc(), // excludes the 12-core GPU class
                2 => NodeResources {
                    cores: 4,
                    memory_mb: 8 * 1024,
                    gpus: 1,
                }, // GPU class only
                _ => NodeResources {
                    cores: 18,
                    memory_mb: 192 * 1024,
                    gpus: 0,
                }, // fat-memory class only
            };
            let wall_t = SimTime::from_mins(wall);
            if shared {
                JobSpec::shared(nodes, per_node, wall_t, "oracle")
            } else {
                JobSpec::exclusive(nodes, per_node, wall_t, "oracle")
            }
        })
}

/// The op mix; `node_ops` adds the rare `SetDown`/`Drain` (each takes a
/// node out of service for good).
fn arb_op(node_ops: bool) -> impl Strategy<Value = Op> {
    let sels = if node_ops { 32 } else { 30 };
    (0u8..sels, arb_spec(), 1u64..400, 0usize..64, 1u64..90).prop_map(
        |(sel, spec, actual_mins, k, mins)| match sel {
            0..=10 => Op::Submit { spec, actual_mins },
            11..=15 => Op::FinishEarliest,
            16..=20 => Op::Cancel { k },
            21..=24 => Op::Advance { mins },
            25..=29 => Op::Sample,
            30 => Op::SetDown { k },
            _ => Op::Drain { k },
        },
    )
}

/// Both schedulers and both samplers, driven in lockstep.
struct Lockstep {
    c: Cluster,
    r: RefCluster,
    mon: UtilizationMonitor,
    ref_mon: RefMonitor,
    now: SimTime,
    submitted: Vec<JobId>,
}

impl Lockstep {
    fn new(c: Cluster, r: RefCluster) -> Self {
        Lockstep {
            c,
            r,
            mon: UtilizationMonitor::two_minute(),
            ref_mon: RefMonitor::two_minute(),
            now: SimTime::ZERO,
            submitted: Vec::new(),
        }
    }

    /// Finish both samplers; their reports must match bit for bit.
    fn finish(self) -> Result<(), TestCaseError> {
        let got = self.mon.finish();
        let want = self.ref_mon.finish();
        prop_assert_eq!(
            report_bits(&got),
            report_bits(&want),
            "sampler reports diverged"
        );
        Ok(())
    }
}

/// The utilization aggregates by direct scan over `nodes`: core usage,
/// memory split, and the sorted idle node ids.
fn scan_aggregates(nodes: &[Node]) -> ((u64, u64), (u64, u64, u64), Vec<NodeId>) {
    let (mut used, mut total, mut mem, mut free_alloc, mut free_idle) = (0, 0, 0, 0, 0);
    let mut idle = Vec::new();
    for n in nodes {
        let u = n.used();
        used += u64::from(u.cores);
        total += u64::from(n.capacity.cores);
        mem += u.memory_mb;
        if n.is_idle() {
            free_idle += n.capacity.memory_mb;
            idle.push(n.id);
        } else {
            free_alloc += n.capacity.memory_mb - u.memory_mb;
        }
    }
    ((used, total), (mem, free_alloc, free_idle), idle)
}

/// Apply one op to both clusters (and both samplers) and compare every
/// observable.
fn step(h: &mut Lockstep, op: &Op) -> Result<(), TestCaseError> {
    let schedule_both = |h: &mut Lockstep| {
        let got = h.c.try_schedule(h.now);
        let want = h.r.try_schedule(h.now);
        for &p in &got.1 {
            h.mon.record_exact_idle_period(p);
        }
        for &p in &want.1 {
            h.ref_mon.record_exact_idle_period(p);
        }
        (got, want)
    };
    let now = h.now;
    match op {
        Op::Submit { spec, actual_mins } => {
            let actual = SimTime::from_mins(*actual_mins);
            let a = h.c.submit(spec.clone(), actual, now);
            let b = h.r.submit(spec.clone(), actual, now);
            prop_assert_eq!(a, b, "job ids diverged");
            h.submitted.push(a);
            let (got, want) = schedule_both(h);
            prop_assert_eq!(got, want, "schedule after submit @ {:?}", now);
        }
        Op::FinishEarliest => {
            let a = h.c.next_completion();
            let b = h.r.next_completion();
            prop_assert_eq!(a, b, "next_completion diverged");
            if let Some((when, id)) = a {
                h.now = now.max(when);
                prop_assert_eq!(h.c.finish(id, h.now).is_ok(), h.r.finish(id, h.now).is_ok());
                let (got, want) = schedule_both(h);
                prop_assert_eq!(got, want, "schedule after finish @ {:?}", h.now);
            }
        }
        Op::Cancel { k } => {
            if h.submitted.is_empty() {
                return Ok(());
            }
            let id = h.submitted[k % h.submitted.len()];
            prop_assert_eq!(
                h.c.cancel(id, now).is_ok(),
                h.r.cancel(id, now).is_ok(),
                "cancel outcome diverged for {:?}",
                id
            );
            let (got, want) = schedule_both(h);
            prop_assert_eq!(got, want, "schedule after cancel @ {:?}", now);
        }
        Op::Advance { mins } => {
            h.now += SimTime::from_mins(*mins);
        }
        Op::Sample => {
            h.mon.sample(&h.c, now);
            h.ref_mon.sample(h.r.nodes(), now);
        }
        Op::SetDown { k } | Op::Drain { k } => {
            let id = NodeId((k % h.c.node_count()) as u32);
            let (a, b) = (h.c.node_mut(id).unwrap(), h.r.node_mut(id).unwrap());
            if matches!(op, Op::SetDown { .. }) {
                a.set_down();
                b.set_down();
            } else {
                a.set_draining();
                b.set_draining();
            }
        }
    }
    let (c, r) = (&h.c, &h.r);
    // Cross-cutting invariants after every op.
    prop_assert_eq!(c.pending_count(), r.pending_count(), "pending diverged");
    prop_assert_eq!(
        c.idle_node_count(),
        r.idle_node_count(),
        "idle nodes diverged"
    );
    prop_assert_eq!(c.next_completion(), r.next_completion());
    for &id in h.submitted.iter() {
        let a = c.job(id).expect("tracked");
        let b = r.job(id).expect("tracked");
        prop_assert_eq!(a.state, b.state, "state diverged for {:?}", id);
        prop_assert_eq!(a.started_at, b.started_at, "start diverged for {:?}", id);
        prop_assert_eq!(a.finished_at, b.finished_at, "finish diverged for {:?}", id);
        prop_assert_eq!(&a.assigned, &b.assigned, "placement diverged for {:?}", id);
    }
    // The terminal ledgers partition the terminal jobs (indexed side only;
    // the reference predates the cancelled ledger).
    let terminal = h
        .submitted
        .iter()
        .filter(|id| {
            matches!(
                c.job(**id).unwrap().state,
                crate::JobState::Completed | crate::JobState::Cancelled
            )
        })
        .count();
    prop_assert_eq!(
        c.completed_jobs().count() + c.cancelled_count(),
        terminal,
        "terminal ledgers lost or duplicated a job"
    );
    // The utilization aggregates equal a direct scan, dirty index or not.
    let (cores, memory, idle) = scan_aggregates(c.nodes());
    prop_assert_eq!(c.core_usage(), cores, "core_usage diverged from the scan");
    prop_assert_eq!(
        c.memory_usage(),
        memory,
        "memory_usage diverged from the scan"
    );
    prop_assert_eq!(
        c.idle_node_count(),
        idle.len(),
        "idle count diverged from the scan"
    );
    let mut listed: Vec<NodeId> = c.idle_nodes().map(|n| n.id).collect();
    listed.sort();
    prop_assert_eq!(listed, idle, "idle_nodes diverged from the scan");
    Ok(())
}

fn run(mut h: Lockstep, ops: &[Op]) -> Result<(), TestCaseError> {
    for op in ops {
        step(&mut h, op)?;
    }
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn indexed_scheduler_matches_scan_oracle(
        ops in prop::collection::vec(arb_op(false), 1..120),
    ) {
        run(
            Lockstep::new(
                Cluster::new(hetero_nodes(8, 5, 3)),
                RefCluster::new(hetero_nodes(8, 5, 3)),
            ),
            &ops,
        )?;
    }

    #[test]
    fn indexed_scheduler_matches_oracle_on_homogeneous_backlog(
        ops in prop::collection::vec(arb_op(false), 1..160),
    ) {
        // Few nodes => deep queues => the backfill loop and tombstone
        // compaction dominate.
        run(
            Lockstep::new(
                Cluster::homogeneous(4, NodeResources::daint_mc()),
                RefCluster::homogeneous(4, NodeResources::daint_mc()),
            ),
            &ops,
        )?;
    }

    #[test]
    fn sampler_matches_frozen_scan_sampler(
        ops in prop::collection::vec(arb_op(true), 1..160),
    ) {
        // Node ops included: samples also land while `node_mut` has left
        // the index dirty, and on nodes that will never be idle again.
        run(
            Lockstep::new(
                Cluster::new(hetero_nodes(8, 5, 3)),
                RefCluster::new(hetero_nodes(8, 5, 3)),
            ),
            &ops,
        )?;
    }
}
