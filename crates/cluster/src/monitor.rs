//! Utilization sampling, reproducing the methodology behind Fig. 1: the
//! paper queried SLURM every two minutes for a month and derived idle-CPU
//! rates, the free-memory split, and idle-period durations *estimated from
//! discrete sampling* (hence the "minimal" and "maximal" estimation panels of
//! Fig. 1c). We record both the sampled estimates and the simulator's ground
//! truth.
//!
//! A sample costs `O(idle nodes)`, not `O(n)`: the cluster aggregates come
//! from counters and the idle index (see [`Cluster::core_usage`]), and idle
//! runs are tracked from the idle set alone. Each node has a dense run
//! length and the stamp of the last sample that saw it idle; `open` lists
//! the nodes with a run in progress. A sample walks
//! [`Cluster::idle_nodes`] to extend or open runs, then closes every open
//! run whose node it did not see. A node that was allocated and released
//! between two samples is idle at both, so its run carries on across the
//! blip, exactly as with a per-node scan. The frozen scan sampler in
//! `crate::reference` (`RefMonitor`) is the oracle for this.

use crate::scheduler::Cluster;
use des::{Percentiles, SimTime};
use fabric::NodeId;
use serde::Serialize;

/// Summary statistics over idle-period durations.
#[derive(Debug, Clone, Serialize)]
pub struct IdlePeriodStats {
    pub events: usize,
    pub median_min: f64,
    pub mean_min: f64,
    /// Fraction of idle events shorter than ten minutes — the paper's
    /// headline "70–80% of idle events last less than 10 minutes".
    pub frac_below_10min: f64,
}

impl IdlePeriodStats {
    pub(crate) fn from_percentiles(p: &mut Percentiles) -> Self {
        if p.is_empty() {
            return IdlePeriodStats {
                events: 0,
                median_min: f64::NAN,
                mean_min: f64::NAN,
                frac_below_10min: f64::NAN,
            };
        }
        IdlePeriodStats {
            events: p.len(),
            median_min: p.median() / 60.0,
            mean_min: p.mean() / 60.0,
            frac_below_10min: p.cdf_at(600.0),
        }
    }
}

/// Full monitoring report (Fig. 1 panels).
#[derive(Debug, Clone, Serialize)]
pub struct MonitorReport {
    /// (time, idle CPU %) — Fig. 1a.
    pub idle_cpu_pct: Vec<(f64, f64)>,
    /// (time, used %, free-on-allocated %, free-on-idle %) — Fig. 1b.
    pub memory_split_pct: Vec<(f64, f64, f64, f64)>,
    /// Idle node count at each sample.
    pub idle_nodes: Vec<usize>,
    pub median_idle_nodes: f64,
    /// Ground-truth idle periods (exact transition times).
    pub exact: IdlePeriodStats,
    /// Discrete-sampling lower bound: `(k-1) * interval` for `k` consecutive
    /// idle samples.
    pub minimal_estimation: IdlePeriodStats,
    /// Discrete-sampling upper bound: `(k+1) * interval`.
    pub maximal_estimation: IdlePeriodStats,
}

/// Samples a [`Cluster`] at a fixed interval.
pub struct UtilizationMonitor {
    interval: SimTime,
    idle_cpu_pct: Vec<(f64, f64)>,
    memory_split_pct: Vec<(f64, f64, f64, f64)>,
    idle_nodes: Vec<usize>,
    exact_periods: Percentiles,
    /// Consecutive idle-sample run length per node id (0 = no open run).
    run_len: Vec<u32>,
    /// Per node id, the number of the last sample that saw it idle.
    last_idle: Vec<u64>,
    /// Nodes with an open run.
    open: Vec<NodeId>,
    /// Samples taken so far; the current sample's stamp.
    samples: u64,
    minimal: Percentiles,
    maximal: Percentiles,
}

impl UtilizationMonitor {
    /// The paper samples every two minutes.
    pub fn two_minute() -> Self {
        Self::new(SimTime::from_mins(2))
    }

    pub fn new(interval: SimTime) -> Self {
        assert!(!interval.is_zero());
        UtilizationMonitor {
            interval,
            idle_cpu_pct: Vec::new(),
            memory_split_pct: Vec::new(),
            idle_nodes: Vec::new(),
            exact_periods: Percentiles::new(),
            run_len: Vec::new(),
            last_idle: Vec::new(),
            open: Vec::new(),
            samples: 0,
            minimal: Percentiles::new(),
            maximal: Percentiles::new(),
        }
    }

    pub fn interval(&self) -> SimTime {
        self.interval
    }

    /// Record a ground-truth idle period (from the scheduler's allocation
    /// path).
    pub fn record_exact_idle_period(&mut self, period: SimTime) {
        self.exact_periods.push(period.as_secs_f64());
    }

    /// Take one sample of the cluster state.
    pub fn sample(&mut self, cluster: &Cluster, now: SimTime) {
        let t_days = now.as_secs_f64() / 86_400.0;

        let (used_cores, total_cores) = cluster.core_usage();
        let idle_pct = 100.0 * (total_cores - used_cores) as f64 / total_cores.max(1) as f64;
        self.idle_cpu_pct.push((t_days, idle_pct));

        let (mem_used, free_alloc, free_idle) = cluster.memory_usage();
        let total_mem = (mem_used + free_alloc + free_idle).max(1) as f64;
        self.memory_split_pct.push((
            t_days,
            100.0 * mem_used as f64 / total_mem,
            100.0 * free_alloc as f64 / total_mem,
            100.0 * free_idle as f64 / total_mem,
        ));

        self.idle_nodes.push(cluster.idle_node_count());

        // Discrete idle-period estimation: extend or open runs for idle
        // nodes, then close the runs of nodes this sample did not see idle.
        self.samples += 1;
        let stamp = self.samples;
        let n = cluster.node_count();
        if self.run_len.len() < n {
            self.run_len.resize(n, 0);
            self.last_idle.resize(n, 0);
        }
        for node in cluster.idle_nodes() {
            let i = node.id.0 as usize;
            if self.run_len[i] == 0 {
                self.open.push(node.id);
            }
            self.run_len[i] += 1;
            self.last_idle[i] = stamp;
        }
        let interval_s = self.interval.as_secs_f64();
        let (run_len, last_idle) = (&mut self.run_len, &self.last_idle);
        let (minimal, maximal) = (&mut self.minimal, &mut self.maximal);
        self.open.retain(|id| {
            let i = id.0 as usize;
            if last_idle[i] == stamp {
                return true;
            }
            close_run(minimal, maximal, run_len[i], interval_s);
            run_len[i] = 0;
            false
        });
    }

    /// Close all open runs (end of trace) and produce the report.
    pub fn finish(mut self) -> MonitorReport {
        let interval_s = self.interval.as_secs_f64();
        for id in std::mem::take(&mut self.open) {
            let k = self.run_len[id.0 as usize];
            close_run(&mut self.minimal, &mut self.maximal, k, interval_s);
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

/// Record a finished run of `k` consecutive idle samples as its minimal and
/// maximal duration estimates.
fn close_run(minimal: &mut Percentiles, maximal: &mut Percentiles, k: u32, interval_s: f64) {
    debug_assert!(k > 0);
    minimal.push((k.saturating_sub(1)) as f64 * interval_s);
    maximal.push((k + 1) as f64 * interval_s);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use crate::node::NodeResources;

    fn spec(nodes: u32) -> JobSpec {
        JobSpec::exclusive(
            nodes,
            NodeResources::daint_mc(),
            SimTime::from_mins(30),
            "t",
        )
    }

    #[test]
    fn samples_capture_idle_fraction() {
        let mut c = Cluster::homogeneous(4, NodeResources::daint_mc());
        let mut m = UtilizationMonitor::two_minute();
        m.sample(&c, SimTime::ZERO);
        c.submit(spec(2), SimTime::from_mins(30), SimTime::ZERO);
        c.try_schedule(SimTime::ZERO);
        m.sample(&c, SimTime::from_mins(2));
        let report = m.finish();
        assert_eq!(report.idle_cpu_pct[0].1, 100.0);
        assert_eq!(report.idle_cpu_pct[1].1, 50.0);
        assert_eq!(report.idle_nodes, vec![4, 2]);
    }

    #[test]
    fn memory_split_sums_to_100() {
        let mut c = Cluster::homogeneous(4, NodeResources::daint_mc());
        let half = NodeResources {
            cores: 18,
            memory_mb: 64 * 1024,
            gpus: 0,
        };
        c.submit(
            JobSpec::shared(2, half, SimTime::from_mins(30), "t"),
            SimTime::from_mins(30),
            SimTime::ZERO,
        );
        c.try_schedule(SimTime::ZERO);
        let mut m = UtilizationMonitor::two_minute();
        m.sample(&c, SimTime::ZERO);
        let r = m.finish();
        let (_, used, fa, fi) = r.memory_split_pct[0];
        assert!((used + fa + fi - 100.0).abs() < 1e-9);
        assert!((used - 25.0).abs() < 1e-9); // 2×64 GB of 4×128 GB
        assert!((fi - 50.0).abs() < 1e-9); // 2 idle nodes
    }

    #[test]
    fn discrete_estimation_brackets_truth() {
        // Node idle for exactly 5 samples (k=5) at 2-min interval:
        // minimal (k-1)*2 = 8 min, maximal (k+1)*2 = 12 min.
        let mut c = Cluster::homogeneous(1, NodeResources::daint_mc());
        let mut m = UtilizationMonitor::two_minute();
        for i in 0..5 {
            m.sample(&c, SimTime::from_mins(2 * i));
        }
        let id = c.submit(spec(1), SimTime::from_mins(30), SimTime::from_mins(9));
        let (_, periods) = c.try_schedule(SimTime::from_mins(9));
        for p in periods {
            m.record_exact_idle_period(p);
        }
        m.sample(&c, SimTime::from_mins(10));
        c.finish(id, SimTime::from_mins(11)).unwrap();
        let r = m.finish();
        assert_eq!(r.minimal_estimation.events, 1);
        assert!((r.minimal_estimation.median_min - 8.0).abs() < 1e-9);
        assert!((r.maximal_estimation.median_min - 12.0).abs() < 1e-9);
        assert!((r.exact.median_min - 9.0).abs() < 1e-9);
        assert!(
            r.minimal_estimation.median_min <= r.exact.median_min
                && r.exact.median_min <= r.maximal_estimation.median_min
        );
    }

    #[test]
    fn open_runs_closed_at_finish() {
        let c = Cluster::homogeneous(3, NodeResources::daint_mc());
        let mut m = UtilizationMonitor::two_minute();
        for i in 0..4 {
            m.sample(&c, SimTime::from_mins(2 * i));
        }
        let r = m.finish();
        assert_eq!(r.minimal_estimation.events, 3, "one event per idle node");
    }

    #[test]
    fn run_spans_an_allocation_between_samples() {
        // Allocated at 3 min and released at 3.5 min: idle at both the 2 and
        // the 4 min sample, so the run counts straight across the blip. It
        // closes at 8 min, the first sample that sees the node busy: k = 4
        // (0, 2, 4, 6 min), minimal (k-1)*2 = 6 min.
        let mut c = Cluster::homogeneous(1, NodeResources::daint_mc());
        let mut m = UtilizationMonitor::two_minute();
        m.sample(&c, SimTime::ZERO);
        m.sample(&c, SimTime::from_mins(2));
        let blip = c.submit(spec(1), SimTime::from_secs(30), SimTime::from_mins(3));
        c.try_schedule(SimTime::from_mins(3));
        c.finish(blip, SimTime::from_secs(210)).unwrap();
        m.sample(&c, SimTime::from_mins(4));
        m.sample(&c, SimTime::from_mins(6));
        c.submit(spec(1), SimTime::from_mins(30), SimTime::from_mins(7));
        c.try_schedule(SimTime::from_mins(7));
        m.sample(&c, SimTime::from_mins(8));
        assert!(m.open.is_empty(), "the busy sample closed the run");
        let r = m.finish();
        assert_eq!(r.idle_nodes, vec![1, 1, 1, 1, 0]);
        assert_eq!(r.minimal_estimation.events, 1);
        assert_eq!(r.minimal_estimation.median_min, 6.0);
        assert_eq!(r.maximal_estimation.median_min, 10.0);
    }

    #[test]
    fn node_set_down_closes_its_run_at_the_next_sample() {
        // `node_mut` dirties the index and no scheduling pass rebuilds it
        // before the next samples: they must still see node 0 as not idle.
        let mut c = Cluster::homogeneous(2, NodeResources::daint_mc());
        let mut m = UtilizationMonitor::two_minute();
        for i in 0..3 {
            m.sample(&c, SimTime::from_mins(2 * i));
        }
        c.node_mut(NodeId(0)).unwrap().set_down();
        m.sample(&c, SimTime::from_mins(6));
        assert_eq!(
            m.open,
            vec![NodeId(1)],
            "node 0's run closed at this sample"
        );
        m.sample(&c, SimTime::from_mins(8));
        let r = m.finish();
        assert_eq!(r.idle_nodes, vec![2, 2, 2, 1, 1]);
        // Node 0: k = 3 -> 4 min; node 1: k = 5, closed at finish -> 8 min.
        assert_eq!(r.minimal_estimation.events, 2);
        assert_eq!(r.minimal_estimation.mean_min, 6.0);
        let (_, used, free_alloc, free_idle) = r.memory_split_pct[4];
        assert_eq!((used, free_alloc, free_idle), (0.0, 50.0, 50.0));
    }

    #[test]
    fn empty_monitor_reports_nan() {
        let m = UtilizationMonitor::two_minute();
        let r = m.finish();
        assert!(r.median_idle_nodes.is_nan());
        assert_eq!(r.exact.events, 0);
    }
}
