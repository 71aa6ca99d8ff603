//! Maximum flow by shortest augmenting paths, with min-cut extraction.
//!
//! Capacities are `i128`; the exact-rational solvers scale their rational
//! capacities to integers before building the network, so every flow value
//! in the workspace is exact.
//!
//! The network lives in flat arc arrays. Edge `e` owns arc `2e` (forward)
//! and arc `2e + 1` (its residual reverse), so the reverse of arc `a` is
//! `a ^ 1`, and the arcs leaving a node form a linked list in insertion
//! order.
//!
//! Every node carries a distance label, a lower bound on its residual
//! distance to the sink. A reverse BFS from the sink sets the labels
//! exactly. The search then walks from the source along admissible arcs
//! (each one label lower), augments when it reaches the sink, and relabels
//! a node it cannot leave. A gap (a label value no node holds any more) or
//! `n` local relabels trigger a fresh reverse BFS, and the run ends when
//! that BFS cannot reach the source. Unlike Dinic, which rebuilds its level
//! graph for every batch of paths, a long path costs about its own length:
//! on project-selection networks whose last few units travel far, most of
//! the work is the first, short paths.

/// Sentinel capacity representing `+∞` (practically unbounded, chosen so
/// sums of many such edges cannot overflow `i128`).
pub const INF: i128 = i128::MAX / 4;

/// End of an arc list.
const NIL: u32 = u32::MAX;

/// A flow network over `n` nodes supporting repeated max-flow queries.
///
/// # Examples
///
/// ```
/// use cmvrp_flow::FlowNetwork;
///
/// // Classic diamond: source 0, sink 3.
/// let mut net = FlowNetwork::new(4);
/// net.add_edge(0, 1, 10);
/// net.add_edge(0, 2, 10);
/// net.add_edge(1, 3, 5);
/// net.add_edge(2, 3, 15);
/// assert_eq!(net.max_flow(0, 3), 15);
/// ```
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    /// Head node of every arc.
    head: Vec<u32>,
    /// Residual capacity of every arc.
    cap: Vec<i128>,
    /// The next arc leaving the same node, or `NIL`.
    next: Vec<u32>,
    /// First and last arc leaving every node, or `NIL`.
    first: Vec<u32>,
    last: Vec<u32>,
    /// Whether the source reached each node when the current solve began.
    reach: Vec<bool>,
    /// Distance label of every node (`n`: cannot reach the sink).
    label: Vec<u32>,
    /// Number of nodes holding each label `0..=n`.
    count: Vec<u32>,
    /// The next arc to try out of every node.
    current: Vec<u32>,
    /// BFS queue, kept to reuse its allocation.
    queue: Vec<u32>,
    stats: FlowStats,
}

/// Always-on counters describing the work a [`FlowNetwork`] has done across
/// its [`FlowNetwork::max_flow`] calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// Reverse BFS passes from the sink that reset every distance label
    /// (at least two per solve that pushes flow: the first and the one
    /// proving the sink unreachable).
    pub bfs_rounds: u64,
    /// Augmenting paths pushed.
    pub augmenting_paths: u64,
}

impl FlowNetwork {
    /// Creates an empty network over `n` nodes (identified `0..n`).
    ///
    /// # Panics
    ///
    /// Panics if `n` does not fit the `u32` node ids.
    pub fn new(n: usize) -> Self {
        assert!(n < NIL as usize, "too many nodes");
        FlowNetwork {
            head: Vec::new(),
            cap: Vec::new(),
            next: Vec::new(),
            first: vec![NIL; n],
            last: vec![NIL; n],
            reach: Vec::new(),
            label: vec![0; n],
            count: vec![0; n + 1],
            current: vec![NIL; n],
            queue: Vec::new(),
            stats: FlowStats::default(),
        }
    }

    /// Work counters accumulated across all solves on this network.
    pub fn stats(&self) -> FlowStats {
        self.stats
    }

    /// The solver's counters as a `cmvrp_obs` registry (`flow.*` names).
    pub fn metrics(&self) -> cmvrp_obs::Metrics {
        let mut m = cmvrp_obs::Metrics::new();
        m.add("flow.bfs_rounds", self.stats.bfs_rounds);
        m.add("flow.augmenting_paths", self.stats.augmenting_paths);
        m
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.first.len()
    }

    /// Whether the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.first.is_empty()
    }

    /// Adds a directed edge `from → to` with the given capacity and returns
    /// an opaque handle usable with [`FlowNetwork::edge_flow`].
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or the capacity is negative.
    pub fn add_edge(&mut self, from: usize, to: usize, cap: i128) -> EdgeHandle {
        assert!(from < self.len() && to < self.len(), "node out of range");
        assert!(cap >= 0, "negative capacity");
        let arc = self.head.len();
        assert!(arc + 2 < NIL as usize, "too many edges");
        self.push_arc(from, to, cap);
        self.push_arc(to, from, 0);
        EdgeHandle {
            arc,
            original_cap: cap,
        }
    }

    /// Appends one arc to the end of `from`'s list.
    fn push_arc(&mut self, from: usize, to: usize, cap: i128) {
        let arc = self.head.len() as u32;
        self.head.push(to as u32);
        self.cap.push(cap);
        self.next.push(NIL);
        match self.last[from] {
            NIL => self.first[from] = arc,
            prev => self.next[prev as usize] = arc,
        }
        self.last[from] = arc;
    }

    /// Returns every edge to its capacity before any flow was pushed: an
    /// edge's forward and reverse residuals always sum to that capacity.
    pub(crate) fn clear_flow(&mut self) {
        for pair in self.cap.chunks_exact_mut(2) {
            pair[0] += pair[1];
            pair[1] = 0;
        }
    }

    /// Sets the capacity of an edge that carries no flow (right after
    /// [`FlowNetwork::clear_flow`]). [`FlowNetwork::edge_flow`] keeps
    /// measuring against the capacity the edge was added with.
    pub(crate) fn set_capacity(&mut self, edge: EdgeHandle, cap: i128) {
        debug_assert!(cap >= 0 && self.cap[edge.arc ^ 1] == 0);
        self.cap[edge.arc] = cap;
    }

    /// Sets the label of every node in `reach` to its exact residual
    /// distance to `t` (`n` when `t` is out of reach, and for every other
    /// node) by BFS over reversed residual arcs, and rewinds every current
    /// arc. Returns whether `s` reaches `t`.
    fn relabel_from(&mut self, s: usize, t: usize) -> bool {
        let n = self.len() as u32;
        self.stats.bfs_rounds += 1;
        self.label.fill(n);
        self.queue.clear();
        self.label[t] = 0;
        self.queue.push(t as u32);
        let mut next = 0;
        while next < self.queue.len() {
            let w = self.queue[next] as usize;
            next += 1;
            let mut a = self.first[w];
            while a != NIL {
                let v = self.head[a as usize] as usize;
                if self.reach[v] && self.cap[(a ^ 1) as usize] > 0 && self.label[v] == n {
                    self.label[v] = self.label[w] + 1;
                    self.queue.push(v as u32);
                }
                a = self.next[a as usize];
            }
        }
        self.count.fill(0);
        for &l in &self.label {
            self.count[l as usize] += 1;
        }
        self.current.copy_from_slice(&self.first);
        self.label[s] < n
    }

    /// The first admissible arc out of `v` at or after its current arc
    /// (residual, and one label lower), which becomes the current arc.
    fn admissible(&mut self, v: usize) -> Option<u32> {
        let mut a = self.current[v];
        while a != NIL {
            let w = self.head[a as usize] as usize;
            if self.cap[a as usize] > 0 && self.label[v] == self.label[w] + 1 {
                break;
            }
            a = self.next[a as usize];
        }
        self.current[v] = a;
        (a != NIL).then_some(a)
    }

    /// Raises `v`'s label to one more than its lowest residual neighbour
    /// (`n` when it has none). Returns `false` instead when `v` was the
    /// last node with its old label: that gap cuts every higher label off
    /// from the sink, so the labels need a fresh BFS.
    fn relabel(&mut self, v: usize) -> bool {
        let n = self.len() as u32;
        let old = self.label[v] as usize;
        self.count[old] -= 1;
        if self.count[old] == 0 {
            return false;
        }
        let mut lowest = n;
        let mut a = self.first[v];
        while a != NIL {
            if self.cap[a as usize] > 0 {
                lowest = lowest.min(self.label[self.head[a as usize] as usize] + 1);
            }
            a = self.next[a as usize];
        }
        self.label[v] = lowest.min(n);
        self.count[self.label[v] as usize] += 1;
        self.current[v] = self.first[v];
        true
    }

    /// Pushes the bottleneck along `path` (arcs from the source to the
    /// sink), then cuts `path` back to the tail of its first saturated arc,
    /// where the search resumes. Returns the amount pushed.
    fn augment(&mut self, path: &mut Vec<u32>) -> i128 {
        let f = path
            .iter()
            .map(|&a| self.cap[a as usize])
            .min()
            .unwrap_or(INF);
        for &a in path.iter() {
            self.cap[a as usize] -= f;
            self.cap[(a ^ 1) as usize] += f;
        }
        let saturated = path.iter().position(|&a| self.cap[a as usize] == 0);
        path.truncate(saturated.unwrap_or(0));
        self.stats.augmenting_paths += 1;
        f
    }

    /// Computes the maximum flow from `s` to `t`, mutating residual
    /// capacities in place. Calling it again continues from the current
    /// residual state (useful for incremental capacity additions).
    ///
    /// # Panics
    ///
    /// Panics if `s == t`.
    pub fn max_flow(&mut self, s: usize, t: usize) -> i128 {
        assert_ne!(s, t, "source equals sink");
        // Only nodes the source reaches can join an augmenting path, and
        // pushing flow never adds to them, so only they get labels.
        let mut reach = std::mem::take(&mut self.reach);
        self.reach_from(s, &mut reach);
        self.reach = reach;
        let n = self.len() as u32;
        let mut flow = 0i128;
        let mut path: Vec<u32> = Vec::new();
        while self.relabel_from(s, t) {
            path.clear();
            let mut v = s;
            let mut relabels = 0;
            while self.label[s] < n && relabels < n {
                if v == t {
                    flow += self.augment(&mut path);
                } else if let Some(a) = self.admissible(v) {
                    path.push(a);
                } else if self.relabel(v) {
                    relabels += 1;
                    path.pop();
                } else {
                    break;
                }
                v = match path.last() {
                    Some(&a) => self.head[a as usize] as usize,
                    None => s,
                };
            }
        }
        flow
    }

    /// After a [`FlowNetwork::max_flow`] call, returns the source side of a
    /// minimum `s`–`t` cut: all nodes reachable from `s` in the residual
    /// graph. It is the smallest source side of any minimum cut, so it does
    /// not depend on which maximum flow was found.
    pub fn min_cut_source_side(&self, s: usize) -> Vec<bool> {
        let mut seen = Vec::new();
        self.reach_from(s, &mut seen);
        seen
    }

    /// Marks in `seen` every node reachable from `s` in the residual graph.
    fn reach_from(&self, s: usize, seen: &mut Vec<bool>) {
        seen.clear();
        seen.resize(self.len(), false);
        let mut stack = vec![s];
        seen[s] = true;
        while let Some(v) = stack.pop() {
            let mut a = self.first[v];
            while a != NIL {
                let to = self.head[a as usize] as usize;
                if self.cap[a as usize] > 0 && !seen[to] {
                    seen[to] = true;
                    stack.push(to);
                }
                a = self.next[a as usize];
            }
        }
    }

    /// The flow currently routed through the edge identified by `handle`
    /// (original capacity minus residual capacity).
    pub fn edge_flow(&self, handle: EdgeHandle) -> i128 {
        handle.original_cap - self.cap[handle.arc]
    }
}

/// Handle to an edge added with [`FlowNetwork::add_edge`], for reading back
/// per-edge flow after solving.
#[derive(Debug, Clone, Copy)]
pub struct EdgeHandle {
    /// The edge's forward arc.
    arc: usize,
    original_cap: i128,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_edge() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, 7);
        assert_eq!(net.max_flow(0, 1), 7);
    }

    #[test]
    fn disconnected_is_zero() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 5);
        assert_eq!(net.max_flow(0, 2), 0);
    }

    #[test]
    fn stats_count_phases_and_paths() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 3);
        net.add_edge(0, 2, 5);
        net.add_edge(1, 3, 4);
        net.add_edge(2, 3, 2);
        assert_eq!(net.stats(), FlowStats::default());
        let f = net.max_flow(0, 3);
        let stats = net.stats();
        assert_eq!(f, 5);
        // Each unit-path push is bounded by the flow value; at least one
        // path and one BFS (plus the terminating BFS) must have happened.
        assert!(stats.augmenting_paths >= 2 && stats.augmenting_paths <= 5);
        assert!(stats.bfs_rounds >= 2);
        let m = net.metrics();
        assert_eq!(m.counter("flow.augmenting_paths"), stats.augmenting_paths);
        assert_eq!(m.counter("flow.bfs_rounds"), stats.bfs_rounds);
    }

    #[test]
    fn classic_example() {
        // CLRS-style network with known max flow 23.
        let mut net = FlowNetwork::new(6);
        net.add_edge(0, 1, 16);
        net.add_edge(0, 2, 13);
        net.add_edge(1, 2, 10);
        net.add_edge(2, 1, 4);
        net.add_edge(1, 3, 12);
        net.add_edge(3, 2, 9);
        net.add_edge(2, 4, 14);
        net.add_edge(4, 3, 7);
        net.add_edge(3, 5, 20);
        net.add_edge(4, 5, 4);
        assert_eq!(net.max_flow(0, 5), 23);
    }

    #[test]
    fn min_cut_separates_and_matches_flow() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 3);
        net.add_edge(0, 2, 5);
        net.add_edge(1, 3, 4);
        net.add_edge(2, 3, 2);
        let f = net.max_flow(0, 3);
        assert_eq!(f, 5);
        let side = net.min_cut_source_side(0);
        assert!(side[0]);
        assert!(!side[3]);
        // Cut value equals flow: edges crossing the cut.
        // 0->1 (3) crosses iff side[0] && !side[1]; here the cut is {0,2}
        // or {0,1,2} depending on saturation; just verify separation.
    }

    #[test]
    fn edge_flow_reporting() {
        let mut net = FlowNetwork::new(3);
        let a = net.add_edge(0, 1, 10);
        let b = net.add_edge(1, 2, 4);
        let f = net.max_flow(0, 2);
        assert_eq!(f, 4);
        assert_eq!(net.edge_flow(a), 4);
        assert_eq!(net.edge_flow(b), 4);
    }

    #[test]
    fn parallel_edges_accumulate() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, 2);
        net.add_edge(0, 1, 3);
        assert_eq!(net.max_flow(0, 1), 5);
    }

    #[test]
    fn self_loop_is_harmless() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 0, 9);
        net.add_edge(0, 1, 1);
        assert_eq!(net.max_flow(0, 1), 1);
    }

    #[test]
    fn incremental_resolve() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 5);
        net.add_edge(1, 2, 5);
        assert_eq!(net.max_flow(0, 2), 5);
        // Saturated; a second call finds nothing more.
        assert_eq!(net.max_flow(0, 2), 0);
    }

    #[test]
    #[should_panic(expected = "source equals sink")]
    fn source_equals_sink_panics() {
        let mut net = FlowNetwork::new(1);
        let _ = net.max_flow(0, 0);
    }

    #[test]
    #[should_panic(expected = "negative capacity")]
    fn negative_capacity_panics() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, -1);
    }

    #[test]
    fn bipartite_matching_via_flow() {
        // 3x3 bipartite with a perfect matching.
        let mut net = FlowNetwork::new(8); // 0 src, 1-3 left, 4-6 right, 7 sink
        for l in 1..=3 {
            net.add_edge(0, l, 1);
            net.add_edge(l + 3, 7, 1);
        }
        net.add_edge(1, 4, 1);
        net.add_edge(1, 5, 1);
        net.add_edge(2, 5, 1);
        net.add_edge(3, 6, 1);
        assert_eq!(net.max_flow(0, 7), 3);
    }

    /// The minimum cut capacity and the smallest minimum-cut source side,
    /// by enumerating every source side.
    fn brute_min_cut(n: usize, edges: &[(usize, usize, i128)]) -> (i128, u32) {
        let (s, t) = (0, n - 1);
        let mut best = (i128::MAX, 0u32);
        for mask in 0u32..(1 << n) {
            if mask >> s & 1 == 0 || mask >> t & 1 == 1 {
                continue;
            }
            let cut: i128 = edges
                .iter()
                .filter(|&&(u, v, _)| mask >> u & 1 == 1 && mask >> v & 1 == 0)
                .map(|&(_, _, c)| c)
                .sum();
            if cut < best.0 {
                best = (cut, mask);
            } else if cut == best.0 {
                // Minimum cuts are closed under intersection.
                best.1 &= mask;
            }
        }
        best
    }

    #[test]
    fn matches_brute_force_min_cut_on_random_networks() {
        let mut rng = cmvrp_util::Rng::seed_from_u64(5);
        for trial in 0..300 {
            let n = rng.gen_range(2..=8);
            let mut net = FlowNetwork::new(n);
            let mut edges = Vec::new();
            let mut handles = Vec::new();
            let m = rng.gen_range(0..=20);
            // Add the edges in two batches with a solve in between, so the
            // second solve continues from a residual state.
            let mut flow = 0;
            for batch in [m / 2, m - m / 2] {
                for _ in 0..batch {
                    let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    let c = rng.gen_range(0..10i64) as i128;
                    handles.push((net.add_edge(u, v, c), u, v, c));
                    edges.push((u, v, c));
                }
                flow += net.max_flow(0, n - 1);
            }
            let (cut, side) = brute_min_cut(n, &edges);
            assert_eq!(flow, cut, "trial {trial}");
            let got = net.min_cut_source_side(0);
            let got: u32 = (0..n).filter(|&v| got[v]).map(|v| 1 << v).sum();
            assert_eq!(got, side, "trial {trial}: minimal source side");
            // Capacity and conservation hold edge by edge.
            let mut net_out = vec![0i128; n];
            for &(h, u, v, c) in &handles {
                let f = net.edge_flow(h);
                assert!((0..=c).contains(&f), "trial {trial}");
                net_out[u] += f;
                net_out[v] -= f;
            }
            assert_eq!(net_out[0], flow, "trial {trial}");
            assert!(net_out[1..n - 1].iter().all(|&x| x == 0), "trial {trial}");
        }
    }
}
