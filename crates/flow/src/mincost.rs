//! Minimum-cost maximum-flow (successive shortest paths with potentials).
//!
//! §2.2 of the thesis contrasts LP (2.1) against the classical
//! Transportation Problem, whose objective is the minimal *cost* of moving
//! a known supply distribution onto a known demand distribution — the
//! Earthmover Distance. LP (2.1) instead minimizes the uniform supply; this
//! module supplies the other side of that contrast so the two objectives
//! can be compared on the same instances (see
//! [`min_travel_transport`](crate::transport::min_travel_transport)).

/// A sentinel cost bound; individual edge costs must stay below it.
const COST_CAP: i64 = i64::MAX / 8;

#[derive(Debug, Clone)]
struct CostEdge {
    to: usize,
    cap: i128,
    cost: i64,
    rev: usize,
}

/// A min-cost flow network over `n` nodes with non-negative edge costs.
///
/// # Examples
///
/// ```
/// use cmvrp_flow::mincost::MinCostFlow;
///
/// let mut net = MinCostFlow::new(3);
/// net.add_edge(0, 1, 5, 2);
/// net.add_edge(1, 2, 5, 3);
/// net.add_edge(0, 2, 2, 10);
/// let (flow, cost) = net.max_flow_min_cost(0, 2);
/// assert_eq!(flow, 7);
/// assert_eq!(cost, 5 * (2 + 3) + 2 * 10);
/// ```
#[derive(Debug, Clone)]
pub struct MinCostFlow {
    graph: Vec<Vec<CostEdge>>,
    /// Johnson potentials, persisted across solves so residual reverse
    /// edges keep non-negative reduced costs when flow is sent in stages.
    potential: Vec<i64>,
    /// Dijkstra runs (= shortest-path searches) across all solves.
    dijkstra_runs: u64,
    /// Augmenting paths along which flow was actually pushed.
    augmenting_paths: u64,
}

/// Handle to an edge for reading back its flow after solving.
#[derive(Debug, Clone, Copy)]
pub struct CostEdgeHandle {
    from: usize,
    index: usize,
    original_cap: i128,
}

impl MinCostFlow {
    /// Creates an empty network over `n` nodes.
    pub fn new(n: usize) -> Self {
        MinCostFlow {
            graph: vec![Vec::new(); n],
            potential: vec![0; n],
            dijkstra_runs: 0,
            augmenting_paths: 0,
        }
    }

    /// `(dijkstra_runs, augmenting_paths)` accumulated across all solves.
    pub fn stats(&self) -> (u64, u64) {
        (self.dijkstra_runs, self.augmenting_paths)
    }

    /// The solver's counters as a `cmvrp_obs` registry (`flow.*` names).
    pub fn metrics(&self) -> cmvrp_obs::Metrics {
        let mut m = cmvrp_obs::Metrics::new();
        m.add("flow.dijkstra_runs", self.dijkstra_runs);
        m.add("flow.augmenting_paths", self.augmenting_paths);
        m
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// Whether the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// Adds a directed edge with capacity `cap` and per-unit cost `cost`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints, negative capacity, or negative /
    /// oversized cost.
    pub fn add_edge(&mut self, from: usize, to: usize, cap: i128, cost: i64) -> CostEdgeHandle {
        assert!(
            from < self.graph.len() && to < self.graph.len(),
            "node out of range"
        );
        assert!(cap >= 0, "negative capacity");
        assert!((0..COST_CAP).contains(&cost), "cost out of range");
        let fwd = self.graph[from].len();
        let bwd = self.graph[to].len() + usize::from(from == to);
        self.graph[from].push(CostEdge {
            to,
            cap,
            cost,
            rev: bwd,
        });
        self.graph[to].push(CostEdge {
            to: from,
            cap: 0,
            cost: -cost,
            rev: fwd,
        });
        CostEdgeHandle {
            from,
            index: fwd,
            original_cap: cap,
        }
    }

    /// Flow routed through `handle` after a solve.
    pub fn edge_flow(&self, handle: CostEdgeHandle) -> i128 {
        handle.original_cap - self.graph[handle.from][handle.index].cap
    }

    /// Computes the maximum `s → t` flow of minimum total cost; returns
    /// `(flow, cost)`.
    ///
    /// Successive shortest paths with Johnson potentials: costs are
    /// non-negative by construction, so plain Dijkstra works from the first
    /// iteration.
    ///
    /// # Panics
    ///
    /// Panics if `s == t`.
    pub fn max_flow_min_cost(&mut self, s: usize, t: usize) -> (i128, i128) {
        self.flow_with_limit(s, t, i128::MAX)
    }

    /// Sends at most `limit` units from `s` to `t` at minimum cost; returns
    /// `(flow_sent, cost)`. `flow_sent < limit` iff the network saturates
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if `s == t` or `limit < 0`.
    pub fn flow_with_limit(&mut self, s: usize, t: usize, limit: i128) -> (i128, i128) {
        assert_ne!(s, t, "source equals sink");
        assert!(limit >= 0, "negative flow limit");
        let n = self.graph.len();
        let mut total_flow: i128 = 0;
        let mut total_cost: i128 = 0;
        while total_flow < limit {
            self.dijkstra_runs += 1;
            // Dijkstra over reduced costs.
            let mut dist = vec![i64::MAX; n];
            let mut prev: Vec<Option<(usize, usize)>> = vec![None; n];
            let mut heap = std::collections::BinaryHeap::new();
            dist[s] = 0;
            heap.push(std::cmp::Reverse((0i64, s)));
            while let Some(std::cmp::Reverse((d, v))) = heap.pop() {
                if d > dist[v] {
                    continue;
                }
                for (i, e) in self.graph[v].iter().enumerate() {
                    if e.cap <= 0 {
                        continue;
                    }
                    let nd = d + e.cost + self.potential[v] - self.potential[e.to];
                    debug_assert!(
                        e.cost + self.potential[v] - self.potential[e.to] >= 0,
                        "negative reduced cost"
                    );
                    if nd < dist[e.to] {
                        dist[e.to] = nd;
                        prev[e.to] = Some((v, i));
                        heap.push(std::cmp::Reverse((nd, e.to)));
                    }
                }
            }
            if dist[t] == i64::MAX {
                break; // saturated
            }
            for (p, &d) in self.potential.iter_mut().zip(&dist) {
                if d < i64::MAX {
                    *p += d;
                }
            }
            // Bottleneck along the path.
            let mut push = limit - total_flow;
            let mut v = t;
            while let Some((u, i)) = prev[v] {
                push = push.min(self.graph[u][i].cap);
                v = u;
            }
            // Apply.
            let mut v = t;
            while let Some((u, i)) = prev[v] {
                let rev = self.graph[u][i].rev;
                self.graph[u][i].cap -= push;
                let cost = self.graph[u][i].cost;
                self.graph[v][rev].cap += push;
                total_cost += push * cost as i128;
                v = u;
            }
            self.augmenting_paths += 1;
            total_flow += push;
        }
        (total_flow, total_cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cheap_path() {
        let mut net = MinCostFlow::new(2);
        net.add_edge(0, 1, 4, 7);
        assert_eq!(net.max_flow_min_cost(0, 1), (4, 28));
    }

    #[test]
    fn stats_count_searches_and_paths() {
        let mut net = MinCostFlow::new(3);
        net.add_edge(0, 1, 5, 2);
        net.add_edge(1, 2, 5, 3);
        net.add_edge(0, 2, 2, 10);
        assert_eq!(net.stats(), (0, 0));
        let _ = net.max_flow_min_cost(0, 2);
        let (dijkstras, paths) = net.stats();
        // Two distinct routes → two augmentations, plus the final
        // saturated search that finds no path.
        assert_eq!(paths, 2);
        assert_eq!(dijkstras, 3);
        let m = net.metrics();
        assert_eq!(m.counter("flow.augmenting_paths"), 2);
        assert_eq!(m.counter("flow.dijkstra_runs"), 3);
    }

    #[test]
    fn prefers_cheap_route_first() {
        // Two routes: cheap capacity 3 (cost 1), expensive capacity 3
        // (cost 10). Limit 4 → 3 cheap + 1 expensive.
        let mut net = MinCostFlow::new(4);
        net.add_edge(0, 1, 3, 0);
        net.add_edge(1, 3, 3, 1);
        net.add_edge(0, 2, 3, 0);
        net.add_edge(2, 3, 3, 10);
        let (flow, cost) = net.flow_with_limit(0, 3, 4);
        assert_eq!(flow, 4);
        assert_eq!(cost, 3 + 10);
    }

    #[test]
    fn saturation_reported() {
        let mut net = MinCostFlow::new(2);
        net.add_edge(0, 1, 2, 5);
        let (flow, cost) = net.flow_with_limit(0, 1, 100);
        assert_eq!(flow, 2);
        assert_eq!(cost, 10);
    }

    #[test]
    fn negative_reduced_costs_handled_by_potentials() {
        // A diamond where the first shortest path changes the second's
        // reduced costs.
        let mut net = MinCostFlow::new(4);
        net.add_edge(0, 1, 2, 1);
        net.add_edge(0, 2, 2, 4);
        net.add_edge(1, 3, 1, 1);
        net.add_edge(1, 2, 2, 1);
        net.add_edge(2, 3, 3, 1);
        let (flow, cost) = net.max_flow_min_cost(0, 3);
        assert_eq!(flow, 4);
        // Optimal: 1 unit 0-1-3 (2), 1 unit 0-1-2-3 (3), 2 units 0-2-3 (10).
        assert_eq!(cost, 2 + 3 + 10);
    }

    #[test]
    fn edge_flow_readback() {
        let mut net = MinCostFlow::new(3);
        let a = net.add_edge(0, 1, 5, 1);
        let b = net.add_edge(1, 2, 3, 1);
        let (flow, _) = net.max_flow_min_cost(0, 2);
        assert_eq!(flow, 3);
        assert_eq!(net.edge_flow(a), 3);
        assert_eq!(net.edge_flow(b), 3);
    }

    #[test]
    fn matches_plain_maxflow_value() {
        // Min-cost max-flow must reach the same *value* as `FlowNetwork`.
        use crate::maxflow::FlowNetwork;
        let mut rng = cmvrp_util::Rng::seed_from_u64(31);
        for trial in 0..10 {
            let n = rng.gen_range(4..9);
            let mut a = FlowNetwork::new(n);
            let mut b = MinCostFlow::new(n);
            for _ in 0..rng.gen_range(5..15) {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u == v {
                    continue;
                }
                let cap = rng.gen_range(0..10) as i128;
                a.add_edge(u, v, cap);
                b.add_edge(u, v, cap, rng.gen_range(0..5));
            }
            let want = a.max_flow(0, n - 1);
            let (got, _) = b.max_flow_min_cost(0, n - 1);
            assert_eq!(got, want, "trial {trial}");
        }
    }

    #[test]
    fn zero_limit_is_noop() {
        let mut net = MinCostFlow::new(2);
        net.add_edge(0, 1, 5, 1);
        assert_eq!(net.flow_with_limit(0, 1, 0), (0, 0));
    }

    #[test]
    #[should_panic(expected = "cost out of range")]
    fn negative_cost_rejected() {
        let mut net = MinCostFlow::new(2);
        net.add_edge(0, 1, 1, -1);
    }
}
