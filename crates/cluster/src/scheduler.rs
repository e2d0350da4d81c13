//! FCFS + conservative EASY-backfill scheduler over a set of nodes.
//!
//! Mirrors the SLURM behaviour the paper relies on: exclusive jobs take whole
//! nodes; jobs submitted with the shared flag (or to the sharing partition)
//! can be co-located with other shared work on the same node; GPU nodes are
//! tracked through GRES-style counts. Walltime estimates drive backfill
//! reservations; actual runtimes come from the trace and are typically
//! shorter.
//!
//! The hot paths run on incrementally-maintained indexes (see
//! [`crate::index`]): placement pulls the first `k` nodes from an ordered
//! free-node index instead of filtering and sorting all nodes, the backfill
//! shadow time is a k-th order statistic over an incrementally-updated
//! per-node walltime horizon, feasibility is a per-capacity-class member
//! count, and backfill extraction tombstones its queue entry instead of
//! shifting the `VecDeque`. The utilization queries the monitor samples
//! (`core_usage`, `memory_usage`, `idle_node_count`, `idle_nodes`) read
//! used-core/used-memory counters kept on allocate/release plus the idle
//! index's per-class aggregates, so a sample costs `O(idle nodes)` rather
//! than `O(n)`. Scheduling decisions are bit-identical to the
//! original scan implementation, which is kept verbatim in
//! [`crate::reference`] and enforced as an oracle by property tests and by
//! the committed `ci/trace_reference.json` replay artifact.

use crate::index::SchedIndex;
use crate::job::{Job, JobId, JobSpec, JobState};
use crate::node::{Node, NodeResources};
use des::SimTime;
use fabric::NodeId;
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// Errors from scheduler operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerError {
    UnknownJob,
    NotRunning,
    ImpossibleRequest,
}

impl fmt::Display for SchedulerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulerError::UnknownJob => write!(f, "unknown job id"),
            SchedulerError::NotRunning => write!(f, "job is not running"),
            SchedulerError::ImpossibleRequest => {
                write!(f, "request can never be satisfied by this cluster")
            }
        }
    }
}

impl std::error::Error for SchedulerError {}

/// How many stale (tombstoned) entries the pending queue tolerates before a
/// compaction pass. Backfill starts and cancellations mark entries stale in
/// O(1) instead of shifting the deque; compaction keeps iteration over the
/// queue amortized O(live).
const PENDING_COMPACT_MIN: usize = 64;

/// The cluster state machine. Drive it with `submit` / `try_schedule` /
/// `finish`; query idle capacity for the serverless resource manager.
pub struct Cluster {
    nodes: Vec<Node>,
    jobs: HashMap<JobId, Job>,
    /// Arrival-ordered queue. Entries whose job is no longer `Pending` are
    /// tombstones: backfill extraction and cancellation mark the job's state
    /// and leave the entry in place (O(1) amortized instead of a O(n)
    /// `remove`/`retain`); scheduling passes skip them and
    /// [`Cluster::maybe_compact_pending`] sweeps them out.
    pending: VecDeque<JobId>,
    /// Number of non-tombstone entries in `pending`.
    pending_live: usize,
    next_id: u64,
    /// Completed-job history kept for statistics (state `Completed` only;
    /// see `cancelled` for the other terminal outcome).
    completed: Vec<JobId>,
    /// Cancelled-job history: jobs dropped as infeasible and jobs cancelled
    /// while pending or running. Kept so outcome accounting (job counts,
    /// wait-time statistics) can audit every submitted job instead of
    /// silently losing the ones that never completed.
    cancelled: Vec<JobId>,
    /// Incremental placement/backfill/feasibility indexes.
    index: SchedIndex,
    /// Cores and memory (MB) allocated to running jobs, kept on
    /// allocate/release and re-synced by every index rebuild. Exact while
    /// the index is clean; the utilization queries scan instead while it is
    /// dirty.
    used_cores: u64,
    used_mem: u64,
    /// Sum of node core capacities (static).
    total_cores: u64,
}

/// One scan's worth of the utilization aggregates.
struct Usage {
    used_cores: u64,
    used_mem: u64,
    free_alloc: u64,
    free_idle: u64,
}

impl Cluster {
    pub fn new(nodes: Vec<Node>) -> Self {
        let index = SchedIndex::new(&nodes);
        let total_cores = nodes.iter().map(|n| u64::from(n.capacity.cores)).sum();
        Cluster {
            nodes,
            jobs: HashMap::new(),
            pending: VecDeque::new(),
            pending_live: 0,
            next_id: 0,
            completed: Vec::new(),
            cancelled: Vec::new(),
            index,
            used_cores: 0,
            used_mem: 0,
            total_cores,
        }
    }

    /// A homogeneous cluster of `n` nodes.
    pub fn homogeneous(n: usize, capacity: NodeResources) -> Self {
        Cluster::new(
            (0..n)
                .map(|i| Node::new(NodeId(i as u32), capacity))
                .collect(),
        )
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.0 as usize)
    }

    /// Mutable node access for external state changes (draining a node,
    /// marking it down, …). The scheduler cannot see what the caller
    /// mutates, so this conservatively invalidates the incremental indexes;
    /// the next scheduling pass rebuilds them in one O(n log n) sweep.
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut Node> {
        self.index.mark_dirty();
        self.nodes.get_mut(id.0 as usize)
    }

    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    pub fn job(&self, id: JobId) -> Option<&Job> {
        self.jobs.get(&id)
    }

    pub fn pending_count(&self) -> usize {
        self.pending_live
    }

    pub fn running_jobs(&self) -> impl Iterator<Item = &Job> {
        self.jobs.values().filter(|j| j.state == JobState::Running)
    }

    pub fn running_count(&self) -> usize {
        self.running_jobs().count()
    }

    /// Jobs that ran to completion, in completion order.
    pub fn completed_jobs(&self) -> impl Iterator<Item = &Job> {
        self.completed.iter().filter_map(|id| self.jobs.get(id))
    }

    /// Jobs that terminated without completing — dropped as infeasible, or
    /// cancelled while pending or running — in cancellation order. Every
    /// submitted job ends up reachable through exactly one of
    /// [`Cluster::completed_jobs`], [`Cluster::cancelled_jobs`], the pending
    /// queue, or the running set.
    pub fn cancelled_jobs(&self) -> impl Iterator<Item = &Job> {
        self.cancelled.iter().filter_map(|id| self.jobs.get(id))
    }

    pub fn cancelled_count(&self) -> usize {
        self.cancelled.len()
    }

    /// The idle nodes, in unspecified order: the idle index's per-class
    /// sets while it is clean (`O(idle nodes)`), a scan of every node while
    /// `node_mut` has left it dirty.
    pub fn idle_nodes(&self) -> impl Iterator<Item = &Node> {
        let dirty = self.index.is_dirty();
        let scan = dirty.then(|| self.nodes.iter().filter(|n| n.is_idle()));
        let indexed = (!dirty).then(|| self.index.idle_ids().map(|id| &self.nodes[id.0 as usize]));
        scan.into_iter()
            .flatten()
            .chain(indexed.into_iter().flatten())
    }

    /// `O(#classes)` while the index is clean, a scan while it is dirty.
    pub fn idle_node_count(&self) -> usize {
        if self.index.is_dirty() {
            self.idle_nodes().count()
        } else {
            self.index.idle_count()
        }
    }

    /// Submit a job; returns its id. `actual_runtime` is the runtime the
    /// trace decided (unknown to the scheduler, which only sees `walltime`).
    pub fn submit(&mut self, spec: JobSpec, actual_runtime: SimTime, now: SimTime) -> JobId {
        self.next_id += 1;
        let id = JobId(self.next_id);
        let runtime = actual_runtime.min(spec.walltime);
        self.jobs.insert(id, Job::new(id, spec, now, runtime));
        self.pending.push_back(id);
        self.pending_live += 1;
        id
    }

    /// Whether `spec` could ever be satisfied by an empty cluster. Node
    /// capacities are static, so this is a per-capacity-class member-count
    /// sum — O(#classes) — unless external node mutation dirtied the index,
    /// in which case it falls back to the direct scan (same result).
    pub fn is_feasible(&self, spec: &JobSpec) -> bool {
        let fitting = if self.index.is_dirty() {
            self.nodes
                .iter()
                .filter(|n| n.capacity.fits(&spec.per_node))
                .count()
        } else {
            self.index.fitting_count(&spec.per_node)
        };
        fitting >= spec.nodes as usize
    }

    /// Rebuild the indexes, and re-sync the usage counters, if external
    /// node mutation invalidated them.
    fn ensure_index(&mut self) {
        if self.index.is_dirty() {
            self.index.rebuild(&self.nodes, &self.jobs);
            let usage = self.scan_usage();
            self.used_cores = usage.used_cores;
            self.used_mem = usage.used_mem;
        }
    }

    /// Derive the utilization aggregates from every node: the index rebuild
    /// re-syncs the counters from it, and the queries fall back to it while
    /// the index is dirty.
    fn scan_usage(&self) -> Usage {
        let mut u = Usage {
            used_cores: 0,
            used_mem: 0,
            free_alloc: 0,
            free_idle: 0,
        };
        for n in &self.nodes {
            let used = n.used();
            u.used_cores += u64::from(used.cores);
            u.used_mem += used.memory_mb;
            if n.is_idle() {
                u.free_idle += n.capacity.memory_mb;
            } else {
                u.free_alloc += n.capacity.memory_mb - used.memory_mb;
            }
        }
        u
    }

    fn start_job(&mut self, id: JobId, nodes: Vec<NodeId>, now: SimTime) -> Vec<SimTime> {
        let job = self.jobs.get_mut(&id).expect("job exists");
        job.state = JobState::Running;
        job.started_at = Some(now);
        let per_node = job.spec.per_node;
        let exclusive = !job.spec.shared;
        let walltime_end = now + job.spec.walltime;
        let mut ended_idle_periods = Vec::new();
        for &nid in &nodes {
            let i = nid.0 as usize;
            if let Some(p) = self.nodes[i].allocate(id, per_node, exclusive, now) {
                ended_idle_periods.push(p);
            }
            self.index.note_allocated(&self.nodes[i], walltime_end);
        }
        self.used_cores += u64::from(per_node.cores) * nodes.len() as u64;
        self.used_mem += per_node.memory_mb * nodes.len() as u64;
        // Assign by moving the vector — the allocation loop above borrowed
        // it, so one extra map lookup replaces a whole-Vec clone.
        self.jobs.get_mut(&id).expect("exists").assigned = nodes;
        ended_idle_periods
    }

    /// Recompute a node's raw backfill horizon after a release: the max
    /// walltime end over the jobs still allocated on it.
    fn node_free_at(&self, node: &Node) -> SimTime {
        node.jobs()
            .filter_map(|jid| self.jobs.get(&jid))
            .filter_map(|j| j.started_at.map(|s| s + j.spec.walltime))
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Drop tombstoned entries off the queue front and return the live head.
    fn live_head(&mut self) -> Option<JobId> {
        while let Some(&id) = self.pending.front() {
            if self.jobs[&id].state == JobState::Pending {
                return Some(id);
            }
            self.pending.pop_front();
        }
        None
    }

    /// Sweep out tombstones once they dominate the queue; amortized O(1)
    /// per extraction.
    fn maybe_compact_pending(&mut self) {
        if self.pending.len() > PENDING_COMPACT_MIN && self.pending_live * 2 < self.pending.len() {
            let jobs = &self.jobs;
            self.pending
                .retain(|id| jobs[id].state == JobState::Pending);
            debug_assert_eq!(self.pending.len(), self.pending_live);
        }
    }

    /// Run the scheduling pass: start the queue head while possible, then
    /// conservatively backfill jobs that finish before the head's shadow
    /// time. Returns `(started job ids, idle periods that just ended)`.
    pub fn try_schedule(&mut self, now: SimTime) -> (Vec<JobId>, Vec<SimTime>) {
        self.ensure_index();
        let mut started = Vec::new();
        let mut idle_periods = Vec::new();

        // FCFS phase. Specs are borrowed, not cloned — this runs once per
        // arrival and once per completion, and a `JobSpec` owns a `String`.
        while let Some(head) = self.live_head() {
            if !self.is_feasible(&self.jobs[&head].spec) {
                // Drop impossible jobs so they don't wedge the queue.
                self.pending.pop_front();
                self.pending_live -= 1;
                let j = self.jobs.get_mut(&head).expect("exists");
                j.state = JobState::Cancelled;
                j.finished_at = Some(now);
                self.cancelled.push(head);
                continue;
            }
            match self.index.select(&self.nodes, &self.jobs[&head].spec) {
                Some(nodes) => {
                    self.pending.pop_front();
                    self.pending_live -= 1;
                    idle_periods.extend(self.start_job(head, nodes, now));
                    started.push(head);
                }
                None => break,
            }
        }

        // Backfill phase (conservative EASY): jobs behind the head may start
        // only if their walltime fits before the head's reservation. A
        // backfilled job's queue entry becomes a tombstone (its state is no
        // longer `Pending`), so extraction never shifts the deque.
        if let Some(&head) = self.pending.front() {
            let shadow = self.index.shadow_time(&self.jobs[&head].spec, now);
            for i in 1..self.pending.len() {
                let jid = self.pending[i];
                if self.jobs[&jid].state != JobState::Pending {
                    continue; // tombstone
                }
                let fits_before_shadow = now + self.jobs[&jid].spec.walltime <= shadow;
                if fits_before_shadow {
                    if let Some(nodes) = self.index.select(&self.nodes, &self.jobs[&jid].spec) {
                        self.pending_live -= 1;
                        idle_periods.extend(self.start_job(jid, nodes, now));
                        started.push(jid);
                    }
                }
            }
        }
        self.maybe_compact_pending();

        (started, idle_periods)
    }

    /// Complete a running job, releasing its nodes.
    pub fn finish(&mut self, id: JobId, now: SimTime) -> Result<(), SchedulerError> {
        self.ensure_index();
        let job = self.jobs.get_mut(&id).ok_or(SchedulerError::UnknownJob)?;
        if job.state != JobState::Running {
            return Err(SchedulerError::NotRunning);
        }
        job.state = JobState::Completed;
        job.finished_at = Some(now);
        let per_node = job.spec.per_node;
        let assigned = std::mem::take(&mut job.assigned);
        for nid in &assigned {
            let i = nid.0 as usize;
            if i >= self.nodes.len() {
                continue;
            }
            let held = self.nodes[i].job_count();
            self.nodes[i].release(id, now);
            // Count only allocations this release removed: `node_mut` can
            // release a job's share behind the scheduler's back.
            if self.nodes[i].job_count() < held {
                self.used_cores -= u64::from(per_node.cores);
                self.used_mem -= per_node.memory_mb;
            }
            let free_at = self.node_free_at(&self.nodes[i]);
            self.index.note_released(&self.nodes[i], free_at);
        }
        // Keep assignment for statistics.
        self.jobs.get_mut(&id).expect("exists").assigned = assigned;
        self.completed.push(id);
        Ok(())
    }

    /// Cancel a pending or running job. The job lands in the cancelled
    /// history either way (a running job's nodes are released first).
    pub fn cancel(&mut self, id: JobId, now: SimTime) -> Result<(), SchedulerError> {
        let job = self.jobs.get_mut(&id).ok_or(SchedulerError::UnknownJob)?;
        match job.state {
            JobState::Pending => {
                job.state = JobState::Cancelled;
                job.finished_at = Some(now);
                // The queue entry stays behind as a tombstone.
                self.pending_live -= 1;
                self.cancelled.push(id);
                self.maybe_compact_pending();
                Ok(())
            }
            JobState::Running => {
                self.finish(id, now)?;
                // `finish` filed it under completed; move it to the
                // cancelled history so each terminal state has exactly one
                // ledger.
                debug_assert_eq!(self.completed.last(), Some(&id));
                self.completed.pop();
                self.jobs.get_mut(&id).expect("exists").state = JobState::Cancelled;
                self.cancelled.push(id);
                Ok(())
            }
            _ => Err(SchedulerError::NotRunning),
        }
    }

    /// Next expected completion among running jobs: `(when, job)`.
    /// The simulation driver uses this to schedule completion events.
    pub fn next_completion(&self) -> Option<(SimTime, JobId)> {
        self.running_jobs()
            .filter_map(|j| j.started_at.map(|s| (s + j.actual_runtime, j.id)))
            .min()
    }

    /// Aggregate used/total core counts (for utilization sampling). O(1)
    /// while the index is clean, a scan while it is dirty.
    pub fn core_usage(&self) -> (u64, u64) {
        if self.index.is_dirty() {
            return (self.scan_usage().used_cores, self.total_cores);
        }
        (self.used_cores, self.total_cores)
    }

    /// Memory accounting split the way Fig. 1b reports it:
    /// `(used, free_on_allocated, free_on_idle)` in MB. `O(#classes)` while
    /// the index is clean, a scan while it is dirty. Idle nodes hold no
    /// allocations, so the memory free on allocated nodes is exactly
    /// `total − free_on_idle − used`.
    pub fn memory_usage(&self) -> (u64, u64, u64) {
        if self.index.is_dirty() {
            let u = self.scan_usage();
            return (u.used_mem, u.free_alloc, u.free_idle);
        }
        let free_idle = self.index.idle_memory_mb();
        let free_alloc = self.index.total_memory_mb() - free_idle - self.used_mem;
        (self.used_mem, free_alloc, free_idle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cluster(n: usize) -> Cluster {
        Cluster::homogeneous(n, NodeResources::daint_mc())
    }

    fn excl(nodes: u32, mins: u64, tag: &str) -> JobSpec {
        JobSpec::exclusive(
            nodes,
            NodeResources::daint_mc(),
            SimTime::from_mins(mins),
            tag,
        )
    }

    #[test]
    fn fcfs_starts_in_order() {
        let mut c = small_cluster(4);
        let a = c.submit(excl(2, 60, "a"), SimTime::from_mins(30), SimTime::ZERO);
        let b = c.submit(excl(2, 60, "b"), SimTime::from_mins(30), SimTime::ZERO);
        let (started, _) = c.try_schedule(SimTime::ZERO);
        assert_eq!(started, vec![a, b]);
        assert_eq!(c.idle_node_count(), 0);
    }

    #[test]
    fn head_blocks_until_space() {
        let mut c = small_cluster(4);
        let a = c.submit(excl(3, 60, "a"), SimTime::from_mins(60), SimTime::ZERO);
        let b = c.submit(excl(2, 60, "b"), SimTime::from_mins(60), SimTime::ZERO);
        let (started, _) = c.try_schedule(SimTime::ZERO);
        assert_eq!(started, vec![a]);
        assert_eq!(c.pending_count(), 1);
        c.finish(a, SimTime::from_mins(60)).unwrap();
        let (started, _) = c.try_schedule(SimTime::from_mins(60));
        assert_eq!(started, vec![b]);
    }

    #[test]
    fn backfill_short_job_jumps_queue() {
        let mut c = small_cluster(4);
        let a = c.submit(excl(3, 100, "a"), SimTime::from_mins(100), SimTime::ZERO);
        // Head needs 4 nodes -> waits until `a` ends at t=100min.
        let head = c.submit(excl(4, 100, "head"), SimTime::from_mins(100), SimTime::ZERO);
        // Short 1-node job fits in the hole before the shadow time.
        let short = c.submit(excl(1, 50, "short"), SimTime::from_mins(50), SimTime::ZERO);
        // Long 1-node job would delay the reservation: no backfill.
        let long = c.submit(excl(1, 500, "long"), SimTime::from_mins(500), SimTime::ZERO);
        let (started, _) = c.try_schedule(SimTime::ZERO);
        assert!(started.contains(&a));
        assert!(started.contains(&short), "short job backfilled");
        assert!(!started.contains(&head));
        assert!(!started.contains(&long), "long job must not delay head");
    }

    #[test]
    fn shared_jobs_colocate_on_one_node() {
        let mut c = small_cluster(1);
        let half = NodeResources {
            cores: 18,
            memory_mb: 32 * 1024,
            gpus: 0,
        };
        let a = c.submit(
            JobSpec::shared(1, half, SimTime::from_mins(60), "a"),
            SimTime::from_mins(60),
            SimTime::ZERO,
        );
        let b = c.submit(
            JobSpec::shared(1, half, SimTime::from_mins(60), "b"),
            SimTime::from_mins(60),
            SimTime::ZERO,
        );
        let (started, _) = c.try_schedule(SimTime::ZERO);
        assert_eq!(started, vec![a, b]);
        let node = c.node(NodeId(0)).unwrap();
        assert_eq!(node.job_count(), 2);
        assert_eq!(node.free().cores, 0);
    }

    #[test]
    fn exclusive_jobs_never_share() {
        let mut c = small_cluster(1);
        let half = NodeResources {
            cores: 18,
            memory_mb: 32 * 1024,
            gpus: 0,
        };
        c.submit(
            JobSpec::exclusive(1, half, SimTime::from_mins(60), "a"),
            SimTime::from_mins(60),
            SimTime::ZERO,
        );
        c.submit(
            JobSpec::shared(1, half, SimTime::from_mins(60), "b"),
            SimTime::from_mins(60),
            SimTime::ZERO,
        );
        let (started, _) = c.try_schedule(SimTime::ZERO);
        assert_eq!(started.len(), 1, "second job cannot join exclusive node");
    }

    #[test]
    fn impossible_jobs_are_cancelled_not_wedged() {
        let mut c = small_cluster(2);
        let imp = c.submit(excl(5, 60, "too-big"), SimTime::from_mins(1), SimTime::ZERO);
        let ok = c.submit(excl(1, 60, "fine"), SimTime::from_mins(1), SimTime::ZERO);
        let (started, _) = c.try_schedule(SimTime::ZERO);
        assert_eq!(c.job(imp).unwrap().state, JobState::Cancelled);
        assert_eq!(started, vec![ok]);
    }

    #[test]
    fn infeasible_jobs_land_in_cancelled_history() {
        // Regression: cancelled-as-infeasible jobs used to get `finished_at`
        // but were reachable through no history — outcome accounting
        // silently dropped them.
        let mut c = small_cluster(2);
        let imp = c.submit(excl(5, 60, "too-big"), SimTime::from_mins(1), SimTime::ZERO);
        let ok = c.submit(excl(1, 60, "fine"), SimTime::from_mins(1), SimTime::ZERO);
        c.try_schedule(SimTime::from_secs(30));
        assert_eq!(c.cancelled_count(), 1);
        let dropped = c.cancelled_jobs().next().unwrap();
        assert_eq!(dropped.id, imp);
        assert_eq!(dropped.state, JobState::Cancelled);
        assert_eq!(dropped.finished_at, Some(SimTime::from_secs(30)));
        assert_eq!(dropped.started_at, None, "never ran");
        // The completed ledger must not contain it.
        c.finish(ok, SimTime::from_mins(60)).unwrap();
        assert!(c.completed_jobs().all(|j| j.id != imp));
        assert_eq!(c.completed_jobs().count(), 1);
    }

    #[test]
    fn every_submitted_job_is_accounted_for() {
        // jobs = completed + cancelled + running + pending, with no overlap,
        // across all three cancellation paths (infeasible drop, pending
        // cancel, running cancel).
        let mut c = small_cluster(2);
        let infeasible = c.submit(excl(9, 60, "big"), SimTime::from_mins(1), SimTime::ZERO);
        let run_cancel = c.submit(excl(2, 60, "rc"), SimTime::from_mins(60), SimTime::ZERO);
        let pend_cancel = c.submit(excl(2, 60, "pc"), SimTime::from_mins(60), SimTime::ZERO);
        let completes = c.submit(excl(1, 60, "ok"), SimTime::from_mins(30), SimTime::ZERO);
        c.try_schedule(SimTime::ZERO);
        c.cancel(pend_cancel, SimTime::from_secs(10)).unwrap();
        c.cancel(run_cancel, SimTime::from_secs(20)).unwrap();
        c.try_schedule(SimTime::from_secs(20));
        c.finish(completes, SimTime::from_mins(30)).unwrap();

        let cancelled: Vec<JobId> = c.cancelled_jobs().map(|j| j.id).collect();
        assert_eq!(cancelled, vec![infeasible, pend_cancel, run_cancel]);
        let completed: Vec<JobId> = c.completed_jobs().map(|j| j.id).collect();
        assert_eq!(completed, vec![completes]);
        assert_eq!(c.pending_count(), 0);
        assert_eq!(c.running_count(), 0);
        // Every cancelled job carries a terminal timestamp.
        assert!(c.cancelled_jobs().all(|j| j.finished_at.is_some()));
    }

    #[test]
    fn finish_errors() {
        let mut c = small_cluster(1);
        assert_eq!(
            c.finish(JobId(99), SimTime::ZERO).unwrap_err(),
            SchedulerError::UnknownJob
        );
        let a = c.submit(excl(1, 5, "a"), SimTime::from_mins(5), SimTime::ZERO);
        assert_eq!(
            c.finish(a, SimTime::ZERO).unwrap_err(),
            SchedulerError::NotRunning
        );
    }

    #[test]
    fn next_completion_uses_actual_runtime() {
        let mut c = small_cluster(2);
        let a = c.submit(excl(1, 100, "a"), SimTime::from_mins(30), SimTime::ZERO);
        let _b = c.submit(excl(1, 100, "b"), SimTime::from_mins(70), SimTime::ZERO);
        c.try_schedule(SimTime::ZERO);
        let (when, who) = c.next_completion().unwrap();
        assert_eq!(who, a);
        assert_eq!(when, SimTime::from_mins(30));
    }

    #[test]
    fn cancel_pending_and_running() {
        let mut c = small_cluster(1);
        let a = c.submit(excl(1, 60, "a"), SimTime::from_mins(60), SimTime::ZERO);
        let b = c.submit(excl(1, 60, "b"), SimTime::from_mins(60), SimTime::ZERO);
        c.try_schedule(SimTime::ZERO);
        c.cancel(b, SimTime::from_secs(1)).unwrap();
        assert_eq!(c.job(b).unwrap().state, JobState::Cancelled);
        c.cancel(a, SimTime::from_secs(2)).unwrap();
        assert_eq!(c.job(a).unwrap().state, JobState::Cancelled);
        assert_eq!(c.idle_node_count(), 1);
        // Both cancellation paths feed the cancelled history; neither job
        // is in the completed ledger.
        assert_eq!(c.cancelled_count(), 2);
        assert_eq!(c.completed_jobs().count(), 0);
    }

    #[test]
    fn usage_accounting() {
        let mut c = small_cluster(2);
        let half = NodeResources {
            cores: 18,
            memory_mb: 32 * 1024,
            gpus: 0,
        };
        c.submit(
            JobSpec::shared(1, half, SimTime::from_mins(60), "a"),
            SimTime::from_mins(60),
            SimTime::ZERO,
        );
        c.try_schedule(SimTime::ZERO);
        let (used, total) = c.core_usage();
        assert_eq!((used, total), (18, 72));
        let (mem_used, free_alloc, free_idle) = c.memory_usage();
        assert_eq!(mem_used, 32 * 1024);
        assert_eq!(free_alloc, 96 * 1024);
        assert_eq!(free_idle, 128 * 1024);

        // Release through `finish` and through cancelling a running job:
        // both bring the counters back to an empty cluster.
        let running: Vec<JobId> = c.running_jobs().map(|j| j.id).collect();
        c.finish(running[0], SimTime::from_mins(60)).unwrap();
        assert_eq!(c.core_usage(), (0, 72));
        assert_eq!(c.memory_usage(), (0, 0, 256 * 1024));
        c.submit(
            excl(2, 60, "b"),
            SimTime::from_mins(60),
            SimTime::from_mins(60),
        );
        let (started, _) = c.try_schedule(SimTime::from_mins(60));
        assert_eq!(c.core_usage(), (72, 72));
        assert_eq!(c.memory_usage(), (256 * 1024, 0, 0));
        c.cancel(started[0], SimTime::from_mins(61)).unwrap();
        assert_eq!(c.core_usage(), (0, 72));
        assert_eq!(c.memory_usage(), (0, 0, 256 * 1024));
    }

    #[test]
    fn idle_periods_reported_at_start() {
        let mut c = small_cluster(1);
        let a = c.submit(
            excl(1, 10, "a"),
            SimTime::from_mins(10),
            SimTime::from_mins(5),
        );
        let (_, periods) = c.try_schedule(SimTime::from_mins(5));
        assert_eq!(periods, vec![SimTime::from_mins(5)]);
        c.finish(a, SimTime::from_mins(15)).unwrap();
        c.submit(
            excl(1, 10, "b"),
            SimTime::from_mins(10),
            SimTime::from_mins(18),
        );
        let (_, periods) = c.try_schedule(SimTime::from_mins(18));
        assert_eq!(periods, vec![SimTime::from_mins(3)]);
    }

    #[test]
    fn node_mut_mutation_is_seen_by_the_next_pass() {
        // Marking a node down behind the scheduler's back must invalidate
        // the indexes: the downed node cannot be placed on, and a job that
        // fit before no longer starts.
        let mut c = small_cluster(2);
        c.node_mut(NodeId(0)).unwrap().set_down();
        let a = c.submit(excl(2, 10, "a"), SimTime::from_mins(10), SimTime::ZERO);
        let b = c.submit(excl(1, 10, "b"), SimTime::from_mins(10), SimTime::ZERO);
        let (started, _) = c.try_schedule(SimTime::ZERO);
        // `a` is feasible by static capacity (2 nodes exist) but only one is
        // placeable, so it blocks the queue; `b` cannot backfill ahead of it
        // because the downed node never frees (shadow time is reached but
        // only one node can host).
        assert!(!started.contains(&a));
        assert!(c.job(a).unwrap().state == JobState::Pending);
        let _ = b;
        assert_eq!(c.idle_node_count(), 1);
    }

    #[test]
    fn pending_queue_compaction_preserves_order() {
        // Flood the queue, cancel most of it (tombstones), and check the
        // survivors still start in arrival order after compaction kicks in.
        let mut c = small_cluster(1);
        let blocker = c.submit(excl(1, 600, "blk"), SimTime::from_mins(600), SimTime::ZERO);
        c.try_schedule(SimTime::ZERO);
        let mut ids = Vec::new();
        for i in 0..300 {
            ids.push(c.submit(
                excl(1, 30, &format!("j{i}")),
                SimTime::from_mins(10),
                SimTime::ZERO,
            ));
        }
        for (i, &id) in ids.iter().enumerate() {
            if i % 3 != 0 {
                c.cancel(id, SimTime::from_secs(1)).unwrap();
            }
        }
        assert_eq!(c.pending_count(), 100);
        c.finish(blocker, SimTime::from_mins(600)).unwrap();
        let survivors: Vec<JobId> = ids.iter().copied().step_by(3).collect();
        let mut started_order = Vec::new();
        let mut now = SimTime::from_mins(600);
        // One node: jobs start one at a time, in arrival order.
        loop {
            let (started, _) = c.try_schedule(now);
            started_order.extend(started);
            match c.next_completion() {
                Some((when, id)) => {
                    now = when;
                    c.finish(id, now).unwrap();
                }
                None => break,
            }
        }
        assert_eq!(started_order, survivors);
        assert_eq!(c.pending_count(), 0);
    }
}
