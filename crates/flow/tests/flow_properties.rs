//! Property tests for the flow substrate: max-flow/min-cut duality on
//! random networks.

// Property tests require the external `proptest` crate, which this
// workspace cannot fetch in its hermetic (offline) build. They are gated
// behind the off-by-default `proptest` cargo feature; enabling it also
// requires uncommenting the proptest dev-dependency (network needed).
#![cfg(feature = "proptest")]

use cmvrp_flow::FlowNetwork;
use proptest::prelude::*;

/// A random small network description: edge list over `n` nodes.
fn network_strategy() -> impl Strategy<Value = (usize, Vec<(usize, usize, u8)>)> {
    (3usize..8).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n, 0..n, 0u8..12), 1..20);
        (Just(n), edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Max-flow equals min-cut capacity (strong duality) on random graphs.
    #[test]
    fn max_flow_equals_cut_capacity((n, edges) in network_strategy()) {
        let mut net = FlowNetwork::new(n);
        let mut kept: Vec<(usize, usize, i128)> = Vec::new();
        for (u, v, c) in edges {
            if u != v {
                net.add_edge(u, v, c as i128);
                kept.push((u, v, c as i128));
            }
        }
        let s = 0;
        let t = n - 1;
        let flow = net.max_flow(s, t);
        let side = net.min_cut_source_side(s);
        prop_assert!(side[s]);
        prop_assert!(!side[t]);
        // Capacity of the returned cut equals the flow value.
        let cut: i128 = kept
            .iter()
            .filter(|&&(u, v, _)| side[u] && !side[v])
            .map(|&(_, _, c)| c)
            .sum();
        prop_assert_eq!(flow, cut);
    }
}
