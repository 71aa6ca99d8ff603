//! Property tests for the flow substrate: max-flow/min-cut duality on
//! random networks.
//!
//! The property runs a fixed number of cases drawn from a seeded
//! [`Rng`], so every failure names a reproducible case.

use cmvrp_flow::FlowNetwork;
use cmvrp_util::Rng;

/// Max-flow equals min-cut capacity (strong duality) on a network of `n`
/// nodes, source 0 and sink `n - 1`; self-loops are dropped.
fn assert_cut_equals_flow(n: usize, edges: &[(usize, usize, i128)]) {
    let mut net = FlowNetwork::new(n);
    let mut kept: Vec<(usize, usize, i128)> = Vec::new();
    for &(u, v, c) in edges {
        if u != v {
            net.add_edge(u, v, c);
            kept.push((u, v, c));
        }
    }
    let s = 0;
    let t = n - 1;
    let flow = net.max_flow(s, t);
    let side = net.min_cut_source_side(s);
    assert!(side[s], "{n} nodes, {edges:?}");
    assert!(!side[t], "{n} nodes, {edges:?}");
    // Capacity of the returned cut equals the flow value.
    let cut: i128 = kept
        .iter()
        .filter(|&&(u, v, _)| side[u] && !side[v])
        .map(|&(_, _, c)| c)
        .sum();
    assert_eq!(flow, cut, "{n} nodes, {edges:?}");
}

/// Random graphs of 3 to 7 nodes and 1 to 19 edges of capacity 0 to 11,
/// after the one case a former randomized run shrank a failure to.
#[test]
fn max_flow_equals_cut_capacity() {
    assert_cut_equals_flow(3, &[(0, 2, 2)]);
    let mut rng = Rng::seed_from_u64(0xF10);
    for _ in 0..64 {
        let n = rng.gen_range(3usize..8);
        let len = rng.gen_range(1usize..20);
        let edges: Vec<(usize, usize, i128)> = (0..len)
            .map(|_| {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                (u, v, i128::from(rng.gen_range(0u32..12)))
            })
            .collect();
        assert_cut_equals_flow(n, &edges);
    }
}
