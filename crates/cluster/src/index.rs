//! Incrementally-maintained scheduler indexes.
//!
//! The scan scheduler (kept as [`crate::reference`]) re-derives three
//! quantities from all `n` nodes on every scheduling attempt: the placement
//! order of free nodes, the backfill shadow time, and the feasibility count.
//! This module maintains each one incrementally so a placement attempt is
//! `O(k log n)` for a `k`-node job instead of `O(n log n)`:
//!
//! * **Idle index** — per capacity class, a `BTreeSet` of placeable idle
//!   nodes ordered by the placement key `(Reverse(idle_since), node_id)`.
//!   The key is *exactly* the scan implementation's sort key, so taking the
//!   first `k` entries of a k-way class merge reproduces the scan's
//!   `select_nth + sort` prefix bit-for-bit.
//! * **Shared index** — partially-allocated, non-exclusive nodes under the
//!   same key. Allocated nodes have `idle_since = None`, which the placement
//!   key maps to `Reverse(SimTime::MAX)` — the smallest key — so shared jobs
//!   pack onto already-allocated nodes first, again exactly as the scan
//!   ordering did. Spare-capacity fit is checked lazily during the merge
//!   (capacity is three-dimensional; there is no total order to index it by).
//! * **Backfill index** — per capacity class, every member node keyed by its
//!   *raw* walltime-horizon `free_at` (`max` over its running jobs of
//!   `started_at + walltime`, `ZERO` when none). The scan sorts the *clamped*
//!   key `(free_at.max(now), id)`; clamping is a monotone transform of the
//!   time component and the id tiebreak only permutes equal times, so the
//!   k-th smallest clamped *time* equals `max(now, k-th smallest raw time)`
//!   — which is all `shadow_time` returns.
//! * **Feasibility counts** — node capacities are static, so the number of
//!   nodes fitting a request shape is a per-class member count summed over
//!   fitting classes, `O(#classes)` per query.
//! * **Utilization aggregates** — the idle index doubles as the monitor's
//!   view of the cluster: the idle node count and the memory of idle nodes
//!   are `Σ idle.len()` and `Σ idle.len() × capacity.memory_mb` over the
//!   classes (`O(#classes)`), total memory is the same sum over members, and
//!   [`SchedIndex::idle_ids`] walks the per-class idle sets, so a sample
//!   costs `O(idle nodes)` instead of `O(n)`.
//!
//! The cluster publishes every allocation state change through
//! [`SchedIndex::note_allocated`] / [`SchedIndex::note_released`]. Callers
//! that mutate nodes directly (`Cluster::node_mut`, e.g. marking a node
//! down) flip a dirty bit; the next scheduling pass rebuilds from scratch,
//! so external mutation costs one `O(n log n)` rebuild instead of
//! correctness.

use crate::job::{Job, JobId, JobSpec};
use crate::node::{Node, NodeResources, NodeState};
use des::SimTime;
use fabric::NodeId;
use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap};

/// The scan scheduler's placement sort key: most-recently-freed first
/// (`idle_since = None`, i.e. allocated, maps to `MAX` and sorts before all
/// idle nodes), node id as the unique tiebreak.
pub(crate) type PlacementKey = (Reverse<SimTime>, NodeId);

fn placement_key(node: &Node) -> PlacementKey {
    (Reverse(node.idle_since().unwrap_or(SimTime::MAX)), node.id)
}

/// One distinct node capacity: static member count plus the two ordered
/// per-class structures.
struct ClassIndex {
    capacity: NodeResources,
    /// Total member nodes (static; drives `is_feasible` and the
    /// `shadow_time` fitting-count check).
    members: usize,
    /// Placeable idle members (`Node::is_idle`), placement-key order.
    idle: BTreeSet<PlacementKey>,
    /// Every member keyed by raw backfill `free_at` (see module docs).
    free_at: BTreeSet<(SimTime, NodeId)>,
}

pub(crate) struct SchedIndex {
    classes: Vec<ClassIndex>,
    /// Node index -> capacity class index.
    class_of: Vec<u32>,
    /// Partially-allocated non-exclusive nodes, placement-key order.
    shared: BTreeSet<PlacementKey>,
    /// Mirror of each node's key in `idle` (None = not in the idle set).
    idle_key: Vec<Option<PlacementKey>>,
    /// Mirror of each node's key in `shared` (None = not in the set).
    shared_key: Vec<Option<PlacementKey>>,
    /// Mirror of each node's raw `free_at` key in its class set.
    free_at: Vec<SimTime>,
    /// Set when nodes were mutated behind the index's back (`node_mut`);
    /// the next `ensure_clean` rebuilds everything.
    dirty: bool,
}

impl SchedIndex {
    pub fn new(nodes: &[Node]) -> Self {
        let mut idx = SchedIndex {
            classes: Vec::new(),
            class_of: Vec::new(),
            shared: BTreeSet::new(),
            idle_key: Vec::new(),
            shared_key: Vec::new(),
            free_at: Vec::new(),
            dirty: false,
        };
        idx.rebuild(nodes, &HashMap::new());
        idx
    }

    pub fn mark_dirty(&mut self) {
        self.dirty = true;
    }

    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Rebuild every structure from the authoritative node/job state.
    pub fn rebuild(&mut self, nodes: &[Node], jobs: &HashMap<JobId, Job>) {
        self.classes.clear();
        self.shared.clear();
        self.class_of = vec![0; nodes.len()];
        self.idle_key = vec![None; nodes.len()];
        self.shared_key = vec![None; nodes.len()];
        self.free_at = vec![SimTime::ZERO; nodes.len()];
        for node in nodes {
            let i = node.id.0 as usize;
            let class = match self
                .classes
                .iter()
                .position(|c| c.capacity == node.capacity)
            {
                Some(c) => c,
                None => {
                    self.classes.push(ClassIndex {
                        capacity: node.capacity,
                        members: 0,
                        idle: BTreeSet::new(),
                        free_at: BTreeSet::new(),
                    });
                    self.classes.len() - 1
                }
            };
            self.class_of[i] = class as u32;
            self.classes[class].members += 1;
            let free_at = node
                .jobs()
                .filter_map(|jid| jobs.get(&jid))
                .filter_map(|j| j.started_at.map(|s| s + j.spec.walltime))
                .max()
                .unwrap_or(SimTime::ZERO);
            self.free_at[i] = free_at;
            self.classes[class].free_at.insert((free_at, node.id));
            if node.is_idle() {
                let key = placement_key(node);
                self.idle_key[i] = Some(key);
                self.classes[class].idle.insert(key);
            } else if Self::shared_eligible(node) {
                let key = placement_key(node);
                self.shared_key[i] = Some(key);
                self.shared.insert(key);
            }
        }
        self.dirty = false;
    }

    /// Membership criterion for the shared (partially-allocated) index:
    /// exactly the nodes `can_host(_, shared=true)` could accept beyond the
    /// idle set, minus the per-request spare-fit check applied lazily.
    fn shared_eligible(node: &Node) -> bool {
        node.job_count() > 0
            && node.exclusive_holder().is_none()
            && node.state() == NodeState::Allocated
    }

    /// Publish a job placement on `node` (call after `Node::allocate`).
    /// `walltime_end` is `now + walltime`, the backfill horizon the new job
    /// contributes.
    pub fn note_allocated(&mut self, node: &Node, walltime_end: SimTime) {
        let i = node.id.0 as usize;
        let class = self.class_of[i] as usize;
        if let Some(key) = self.idle_key[i].take() {
            self.classes[class].idle.remove(&key);
        }
        if Self::shared_eligible(node) && self.shared_key[i].is_none() {
            let key = placement_key(node);
            self.shared_key[i] = Some(key);
            self.shared.insert(key);
        }
        let old = self.free_at[i];
        let new = old.max(walltime_end);
        if new != old {
            self.classes[class].free_at.remove(&(old, node.id));
            self.classes[class].free_at.insert((new, node.id));
            self.free_at[i] = new;
        }
    }

    /// Publish a job release on `node` (call after `Node::release`).
    /// `free_at` is the recomputed raw walltime horizon over the node's
    /// remaining jobs (`ZERO` when none).
    pub fn note_released(&mut self, node: &Node, free_at: SimTime) {
        let i = node.id.0 as usize;
        let class = self.class_of[i] as usize;
        if !Self::shared_eligible(node) {
            if let Some(key) = self.shared_key[i].take() {
                self.shared.remove(&key);
            }
        }
        if node.is_idle() && self.idle_key[i].is_none() {
            let key = placement_key(node);
            self.idle_key[i] = Some(key);
            self.classes[class].idle.insert(key);
        }
        let old = self.free_at[i];
        if free_at != old {
            self.classes[class].free_at.remove(&(old, node.id));
            self.classes[class].free_at.insert((free_at, node.id));
            self.free_at[i] = free_at;
        }
    }

    /// Number of nodes whose static capacity fits `req` (any state).
    pub fn fitting_count(&self, req: &NodeResources) -> usize {
        self.classes
            .iter()
            .filter(|c| c.capacity.fits(req))
            .map(|c| c.members)
            .sum()
    }

    /// Number of placeable idle nodes (`Node::is_idle`), `O(#classes)`.
    pub fn idle_count(&self) -> usize {
        self.classes.iter().map(|c| c.idle.len()).sum()
    }

    /// Memory capacity of the idle nodes in MB, `O(#classes)`.
    pub fn idle_memory_mb(&self) -> u64 {
        self.classes
            .iter()
            .map(|c| c.idle.len() as u64 * c.capacity.memory_mb)
            .sum()
    }

    /// Memory capacity of every node in MB, `O(#classes)`.
    pub fn total_memory_mb(&self) -> u64 {
        self.classes
            .iter()
            .map(|c| c.members as u64 * c.capacity.memory_mb)
            .sum()
    }

    /// Ids of the idle nodes, class by class (not in node-id order).
    pub fn idle_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.classes
            .iter()
            .flat_map(|c| c.idle.iter().map(|&(_, id)| id))
    }

    /// Find nodes for `spec` right now: the indexed replacement for the
    /// scan `find_nodes`, returning the identical node list in the
    /// identical order, or `None` if fewer than `spec.nodes` candidates
    /// exist.
    pub fn select(&self, nodes: &[Node], spec: &JobSpec) -> Option<Vec<NodeId>> {
        debug_assert!(!self.dirty, "select on a dirty index");
        let k = spec.nodes as usize;
        let req = &spec.per_node;

        // Fast path: exclusive request on a cluster where one class fits —
        // the merged order is just that class's idle set.
        if !spec.shared {
            let mut fitting = self.classes.iter().filter(|c| c.capacity.fits(req));
            if let (Some(class), None) = (fitting.next(), fitting.next()) {
                if class.idle.len() < k {
                    return None;
                }
                return Some(class.idle.iter().take(k).map(|&(_, id)| id).collect());
            }
        }

        // General path: k-way merge over every eligible ordered source.
        let mut sources: Vec<Box<dyn Iterator<Item = PlacementKey> + '_>> = Vec::new();
        if spec.shared {
            sources.push(Box::new(
                self.shared
                    .iter()
                    .copied()
                    .filter(|&(_, nid)| nodes[nid.0 as usize].free().fits(req)),
            ));
        }
        for class in self.classes.iter().filter(|c| c.capacity.fits(req)) {
            sources.push(Box::new(class.idle.iter().copied()));
        }
        let mut its: Vec<_> = sources.into_iter().map(Iterator::peekable).collect();
        let mut picked: Vec<NodeId> = Vec::with_capacity(k);
        while picked.len() < k {
            let mut best: Option<(PlacementKey, usize)> = None;
            for (s, it) in its.iter_mut().enumerate() {
                if let Some(&key) = it.peek() {
                    if best.is_none_or(|(b, _)| key < b) {
                        best = Some((key, s));
                    }
                }
            }
            match best {
                Some((key, s)) => {
                    its[s].next();
                    picked.push(key.1);
                }
                None => return None, // fewer than k candidates exist
            }
        }
        Some(picked)
    }

    /// Earliest time the `head` job could start assuming running jobs end at
    /// their walltime limit: the k-th smallest clamped per-node free time,
    /// computed as `max(now, k-th smallest raw free_at)` over fitting
    /// classes (see the module docs for why the clamp commutes with the
    /// order statistic).
    pub fn shadow_time(&self, head: &JobSpec, now: SimTime) -> SimTime {
        debug_assert!(!self.dirty, "shadow_time on a dirty index");
        let k = head.nodes as usize;
        assert!(k > 0, "shadow_time of a zero-node job");
        if self.fitting_count(&head.per_node) < k {
            return SimTime::MAX;
        }
        let mut its: Vec<_> = self
            .classes
            .iter()
            .filter(|c| c.capacity.fits(&head.per_node))
            .map(|c| c.free_at.iter().peekable())
            .collect();
        let mut kth = SimTime::ZERO;
        for _ in 0..k {
            let (_, s) = its
                .iter_mut()
                .enumerate()
                .filter_map(|(s, it)| it.peek().map(|&&key| (key, s)))
                .min()
                .expect("fitting_count >= k guarantees k entries");
            kth = its[s].next().expect("peeked").0;
        }
        kth.max(now)
    }
}
