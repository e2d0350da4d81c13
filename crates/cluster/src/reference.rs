//! The original scan-everything scheduler, kept verbatim as a test/bench
//! oracle for the indexed implementation in [`crate::scheduler`].
//!
//! [`RefCluster`] is the pre-PR-9 `Cluster`: `find_nodes` filters all nodes
//! and top-k-selects per attempt, `shadow_time` rebuilds a full
//! `(free_at, node)` vector per backfill pass, `is_feasible` re-counts
//! fitting nodes, and backfill extraction is `VecDeque::remove`. Every
//! scheduling decision of the indexed scheduler must be bit-identical to
//! this module — enforced by the property tests in
//! `scheduler::oracle_tests` (arbitrary submit/schedule/finish/cancel
//! interleavings) and measured like-for-like by the `cluster_sched` bench
//! (compile with `--features oracle`).
//!
//! [`RefMonitor`] is the scan `UtilizationMonitor` sampler that predates
//! the incremental one: every
//! sample scans all nodes for the core and memory aggregates and the idle
//! count, and tracks idle runs in a `HashMap` updated per node. The
//! incremental sampler (counters, the idle index, dense run arrays) must
//! produce a bit-identical [`MonitorReport`] — enforced by
//! `sampler_matches_frozen_scan_sampler` in `oracle_tests` and by the
//! `cluster_sched` bench before it times the sampler.
//!
//! Do not "fix" or optimize this module: its value is being the frozen
//! semantics the committed `ci/trace_reference.json` was generated from.

use crate::job::{Job, JobId, JobSpec, JobState};
use crate::monitor::{IdlePeriodStats, MonitorReport};
use crate::node::{Node, NodeResources};
use crate::scheduler::SchedulerError;
use des::{Percentiles, SimTime};
use fabric::NodeId;
use std::collections::{HashMap, VecDeque};

/// The pre-index cluster state machine (scan-based hot paths).
pub struct RefCluster {
    nodes: Vec<Node>,
    jobs: HashMap<JobId, Job>,
    pending: VecDeque<JobId>,
    next_id: u64,
    completed: Vec<JobId>,
}

impl RefCluster {
    pub fn new(nodes: Vec<Node>) -> Self {
        RefCluster {
            nodes,
            jobs: HashMap::new(),
            pending: VecDeque::new(),
            next_id: 0,
            completed: Vec::new(),
        }
    }

    pub fn homogeneous(n: usize, capacity: NodeResources) -> Self {
        RefCluster::new(
            (0..n)
                .map(|i| Node::new(NodeId(i as u32), capacity))
                .collect(),
        )
    }

    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.0 as usize)
    }

    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Direct node access for out-of-band state changes (marking a node
    /// down or draining), mirroring `Cluster::node_mut`.
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut Node> {
        self.nodes.get_mut(id.0 as usize)
    }

    pub fn job(&self, id: JobId) -> Option<&Job> {
        self.jobs.get(&id)
    }

    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    pub fn idle_node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_idle()).count()
    }

    pub fn completed_count(&self) -> usize {
        self.completed.len()
    }

    pub fn submit(&mut self, spec: JobSpec, actual_runtime: SimTime, now: SimTime) -> JobId {
        self.next_id += 1;
        let id = JobId(self.next_id);
        let runtime = actual_runtime.min(spec.walltime);
        self.jobs.insert(id, Job::new(id, spec, now, runtime));
        self.pending.push_back(id);
        id
    }

    pub fn is_feasible(&self, spec: &JobSpec) -> bool {
        let fitting = self
            .nodes
            .iter()
            .filter(|n| n.capacity.fits(&spec.per_node))
            .count();
        fitting >= spec.nodes as usize
    }

    fn find_nodes(&self, spec: &JobSpec) -> Option<Vec<NodeId>> {
        let key = |n: &&Node| {
            (
                std::cmp::Reverse(n.idle_since().unwrap_or(SimTime::MAX)),
                n.id,
            )
        };
        let mut candidates: Vec<&Node> = self
            .nodes
            .iter()
            .filter(|n| n.can_host(&spec.per_node, spec.shared))
            .collect();
        let k = spec.nodes as usize;
        if candidates.len() < k {
            return None;
        }
        if k == 0 {
            return Some(Vec::new());
        }
        if candidates.len() > k {
            candidates.select_nth_unstable_by_key(k - 1, key);
            candidates.truncate(k);
        }
        candidates.sort_unstable_by_key(key);
        Some(candidates.iter().map(|n| n.id).collect())
    }

    fn start_job(&mut self, id: JobId, nodes: Vec<NodeId>, now: SimTime) -> Vec<SimTime> {
        let job = self.jobs.get_mut(&id).expect("job exists");
        job.state = JobState::Running;
        job.started_at = Some(now);
        job.assigned = nodes.clone();
        let per_node = job.spec.per_node;
        let exclusive = !job.spec.shared;
        let mut ended_idle_periods = Vec::new();
        for nid in nodes {
            let node = self.nodes.get_mut(nid.0 as usize).expect("node exists");
            if let Some(p) = node.allocate(id, per_node, exclusive, now) {
                ended_idle_periods.push(p);
            }
        }
        ended_idle_periods
    }

    fn shadow_time(&self, head: &JobSpec, now: SimTime) -> SimTime {
        let mut node_free_at: Vec<(SimTime, &Node)> = self
            .nodes
            .iter()
            .filter(|n| n.capacity.fits(&head.per_node))
            .map(|n| {
                let free_at = n
                    .jobs()
                    .filter_map(|jid| self.jobs.get(&jid))
                    .filter_map(|j| j.started_at.map(|s| s + j.spec.walltime))
                    .max()
                    .unwrap_or(now);
                (free_at.max(now), n)
            })
            .collect();
        node_free_at.sort_by_key(|(t, n)| (*t, n.id));
        if node_free_at.len() < head.nodes as usize {
            return SimTime::MAX;
        }
        node_free_at[head.nodes as usize - 1].0
    }

    pub fn try_schedule(&mut self, now: SimTime) -> (Vec<JobId>, Vec<SimTime>) {
        let mut started = Vec::new();
        let mut idle_periods = Vec::new();

        while let Some(&head) = self.pending.front() {
            if !self.is_feasible(&self.jobs[&head].spec) {
                self.pending.pop_front();
                if let Some(j) = self.jobs.get_mut(&head) {
                    j.state = JobState::Cancelled;
                    j.finished_at = Some(now);
                }
                continue;
            }
            match self.find_nodes(&self.jobs[&head].spec) {
                Some(nodes) => {
                    self.pending.pop_front();
                    idle_periods.extend(self.start_job(head, nodes, now));
                    started.push(head);
                }
                None => break,
            }
        }

        if let Some(&head) = self.pending.front() {
            let shadow = self.shadow_time(&self.jobs[&head].spec, now);
            let mut i = 1;
            while i < self.pending.len() {
                let jid = self.pending[i];
                let fits_before_shadow = now + self.jobs[&jid].spec.walltime <= shadow;
                if fits_before_shadow {
                    if let Some(nodes) = self.find_nodes(&self.jobs[&jid].spec) {
                        self.pending.remove(i);
                        idle_periods.extend(self.start_job(jid, nodes, now));
                        started.push(jid);
                        continue; // do not advance i; element shifted in
                    }
                }
                i += 1;
            }
        }

        (started, idle_periods)
    }

    pub fn finish(&mut self, id: JobId, now: SimTime) -> Result<(), SchedulerError> {
        let job = self.jobs.get_mut(&id).ok_or(SchedulerError::UnknownJob)?;
        if job.state != JobState::Running {
            return Err(SchedulerError::NotRunning);
        }
        job.state = JobState::Completed;
        job.finished_at = Some(now);
        let assigned = std::mem::take(&mut job.assigned);
        for nid in &assigned {
            if let Some(node) = self.nodes.get_mut(nid.0 as usize) {
                node.release(id, now);
            }
        }
        self.jobs.get_mut(&id).expect("exists").assigned = assigned;
        self.completed.push(id);
        Ok(())
    }

    pub fn cancel(&mut self, id: JobId, now: SimTime) -> Result<(), SchedulerError> {
        let job = self.jobs.get_mut(&id).ok_or(SchedulerError::UnknownJob)?;
        match job.state {
            JobState::Pending => {
                job.state = JobState::Cancelled;
                job.finished_at = Some(now);
                self.pending.retain(|&j| j != id);
                Ok(())
            }
            JobState::Running => {
                self.finish(id, now)?;
                self.jobs.get_mut(&id).expect("exists").state = JobState::Cancelled;
                Ok(())
            }
            _ => Err(SchedulerError::NotRunning),
        }
    }

    pub fn next_completion(&self) -> Option<(SimTime, JobId)> {
        self.jobs
            .values()
            .filter(|j| j.state == JobState::Running)
            .filter_map(|j| j.started_at.map(|s| (s + j.actual_runtime, j.id)))
            .min()
    }
}

/// The pre-incremental utilization sampler (scan-based): the same report as
/// [`crate::UtilizationMonitor`], from a full pass over the nodes per sample.
pub struct RefMonitor {
    interval: SimTime,
    idle_cpu_pct: Vec<(f64, f64)>,
    memory_split_pct: Vec<(f64, f64, f64, f64)>,
    idle_nodes: Vec<usize>,
    exact_periods: Percentiles,
    /// consecutive idle-sample run length per node
    idle_runs: HashMap<NodeId, u32>,
    minimal: Percentiles,
    maximal: Percentiles,
}

impl RefMonitor {
    pub fn two_minute() -> Self {
        RefMonitor {
            interval: SimTime::from_mins(2),
            idle_cpu_pct: Vec::new(),
            memory_split_pct: Vec::new(),
            idle_nodes: Vec::new(),
            exact_periods: Percentiles::new(),
            idle_runs: HashMap::new(),
            minimal: Percentiles::new(),
            maximal: Percentiles::new(),
        }
    }

    pub fn record_exact_idle_period(&mut self, period: SimTime) {
        self.exact_periods.push(period.as_secs_f64());
    }

    pub fn sample(&mut self, nodes: &[Node], now: SimTime) {
        let t_days = now.as_secs_f64() / 86_400.0;

        let (used_cores, total_cores) = {
            let mut used = 0;
            let mut total = 0;
            for n in nodes {
                used += u64::from(n.used().cores);
                total += u64::from(n.capacity.cores);
            }
            (used, total)
        };
        let idle_pct = 100.0 * (total_cores - used_cores) as f64 / total_cores.max(1) as f64;
        self.idle_cpu_pct.push((t_days, idle_pct));

        let (mem_used, free_alloc, free_idle) = {
            let mut used = 0;
            let mut free_alloc = 0;
            let mut free_idle = 0;
            for n in nodes {
                let u = n.used().memory_mb;
                used += u;
                if n.is_idle() {
                    free_idle += n.capacity.memory_mb;
                } else {
                    free_alloc += n.capacity.memory_mb - u;
                }
            }
            (used, free_alloc, free_idle)
        };
        let total_mem = (mem_used + free_alloc + free_idle).max(1) as f64;
        self.memory_split_pct.push((
            t_days,
            100.0 * mem_used as f64 / total_mem,
            100.0 * free_alloc as f64 / total_mem,
            100.0 * free_idle as f64 / total_mem,
        ));

        self.idle_nodes
            .push(nodes.iter().filter(|n| n.is_idle()).count());

        // Discrete idle-period estimation: extend runs for idle nodes, close
        // runs for nodes that stopped being idle.
        let interval_s = self.interval.as_secs_f64();
        for node in nodes {
            if node.is_idle() {
                *self.idle_runs.entry(node.id).or_insert(0) += 1;
            } else if let Some(k) = self.idle_runs.remove(&node.id) {
                self.close_run(k, interval_s);
            }
        }
    }

    fn close_run(&mut self, k: u32, interval_s: f64) {
        debug_assert!(k > 0);
        self.minimal.push((k.saturating_sub(1)) as f64 * interval_s);
        self.maximal.push((k + 1) as f64 * interval_s);
    }

    pub fn finish(mut self) -> MonitorReport {
        let interval_s = self.interval.as_secs_f64();
        let runs: Vec<u32> = self.idle_runs.drain().map(|(_, k)| k).collect();
        for k in runs {
            self.close_run(k, interval_s);
        }
        let median_idle_nodes = {
            let mut p = Percentiles::new();
            for &n in &self.idle_nodes {
                p.push(n as f64);
            }
            if p.is_empty() {
                f64::NAN
            } else {
                p.median()
            }
        };
        MonitorReport {
            idle_cpu_pct: self.idle_cpu_pct,
            memory_split_pct: self.memory_split_pct,
            idle_nodes: self.idle_nodes,
            median_idle_nodes,
            exact: IdlePeriodStats::from_percentiles(&mut self.exact_periods),
            minimal_estimation: IdlePeriodStats::from_percentiles(&mut self.minimal),
            maximal_estimation: IdlePeriodStats::from_percentiles(&mut self.maximal),
        }
    }
}

/// Every number of a [`MonitorReport`] as raw bits (`f64::to_bits`, counts
/// widened to `u64`), in field order: two reports are bit-identical exactly
/// when these vectors are equal.
pub fn report_bits(r: &MonitorReport) -> Vec<u64> {
    let mut bits = vec![
        r.idle_cpu_pct.len() as u64,
        r.memory_split_pct.len() as u64,
        r.idle_nodes.len() as u64,
    ];
    for &(t, v) in &r.idle_cpu_pct {
        bits.extend([t.to_bits(), v.to_bits()]);
    }
    for &(t, a, b, c) in &r.memory_split_pct {
        bits.extend([t.to_bits(), a.to_bits(), b.to_bits(), c.to_bits()]);
    }
    bits.extend(r.idle_nodes.iter().map(|&n| n as u64));
    bits.push(r.median_idle_nodes.to_bits());
    for s in [&r.exact, &r.minimal_estimation, &r.maximal_estimation] {
        bits.extend([
            s.events as u64,
            s.median_min.to_bits(),
            s.mean_min.to_bits(),
            s.frac_below_10min.to_bits(),
        ]);
    }
    bits
}
