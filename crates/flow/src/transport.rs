//! The radius-constrained transportation LP — the primal side of
//! Lemma 2.2.2.
//!
//! LP (2.1) of the thesis asks for the minimal uniform supply `ω` such that
//! flows `f_ij ≥ 0` with `Σ_{j∈N_r(i)} f_ij ≤ ω` and `Σ_{i∈N_r(j)} f_ij ≥
//! d(j)` exist. For a fixed `ω` this is a bipartite feasibility question
//! answered exactly by max-flow (after clearing rational denominators);
//! Lemma 2.2.2 says the minimal `ω` equals the maximum density computed by
//! [`crate::grid_density`] — an equality this module lets tests verify on
//! both sides.
//!
//! The generalization with per-vehicle *longevity* factors `p_i`
//! (capacity `p_i·ω`, reach `p_i·r`) implements LP (4.2) of Chapter 4.

use crate::grid_density::{max_density_over_grid, DensityMethod};
use crate::maxflow::FlowNetwork;
use cmvrp_grid::{dilate, DemandMap, GridBounds, Point};
use cmvrp_util::Ratio;
use std::collections::HashMap;

/// A radius-constrained transportation instance: one vehicle per grid
/// vertex, demand `d(j)`, and transport radius `r`.
///
/// # Examples
///
/// ```
/// use cmvrp_flow::TransportInstance;
/// use cmvrp_grid::{DemandMap, GridBounds, pt2};
/// use cmvrp_util::Ratio;
///
/// let mut d = DemandMap::new();
/// d.add(pt2(2, 2), 5);
/// let inst = TransportInstance::new(GridBounds::square(5), d, 1);
/// // 5 demand spread over the 5-cell diamond: ω = 1 suffices.
/// assert!(inst.feasible(Ratio::ONE));
/// assert!(!inst.feasible(Ratio::new(9, 10)));
/// ```
#[derive(Debug, Clone)]
pub struct TransportInstance<const D: usize> {
    bounds: GridBounds<D>,
    demand: DemandMap<D>,
    radius: u64,
}

impl<const D: usize> TransportInstance<D> {
    /// Creates an instance.
    ///
    /// # Panics
    ///
    /// Panics if any demand point lies outside `bounds`.
    pub fn new(bounds: GridBounds<D>, demand: DemandMap<D>, radius: u64) -> Self {
        for p in demand.support() {
            assert!(bounds.contains(p), "demand point {p} outside bounds");
        }
        TransportInstance {
            bounds,
            demand,
            radius,
        }
    }

    /// The grid bounds.
    pub fn bounds(&self) -> &GridBounds<D> {
        &self.bounds
    }

    /// The demand map.
    pub fn demand(&self) -> &DemandMap<D> {
        &self.demand
    }

    /// The transport radius `r`.
    pub fn radius(&self) -> u64 {
        self.radius
    }

    /// Whether uniform supply `ω` at every vertex suffices (LP (2.1)
    /// feasibility at `ω`).
    pub fn feasible(&self, omega: Ratio) -> bool {
        transport_feasible(&self.bounds, &self.demand, self.radius, omega)
    }

    /// The LP (2.1) optimum via the dual characterization of Lemma 2.2.2:
    /// `max_T Σ_{x∈T} d(x) / |N_r(T)|`.
    pub fn min_supply(&self) -> Ratio {
        min_uniform_supply(&self.bounds, &self.demand, self.radius)
    }
}

/// Max-flow feasibility of uniform supply `omega` with transport radius `r`.
///
/// Only vehicles within distance `r` of the demand support participate
/// (others cannot route anything useful), so the network stays small even on
/// large grids.
pub fn transport_feasible<const D: usize>(
    bounds: &GridBounds<D>,
    demand: &DemandMap<D>,
    r: u64,
    omega: Ratio,
) -> bool {
    if demand.total() == 0 {
        return true;
    }
    if omega.is_negative() {
        return false;
    }
    let suppliers: Vec<Point<D>> = dilate(bounds, demand.support(), r).iter().collect();
    let demands: Vec<(Point<D>, u64)> = demand.iter().collect();
    let q = omega.denom();
    let p = omega.numer();
    // Node layout: 0 source; suppliers; demand nodes; sink.
    let ns = suppliers.len();
    let nd = demands.len();
    let sink = 1 + ns + nd;
    let mut net = FlowNetwork::new(sink + 1);
    let supplier_index: HashMap<Point<D>, usize> =
        suppliers.iter().enumerate().map(|(i, s)| (*s, i)).collect();
    for i in 0..ns {
        net.add_edge(0, 1 + i, p);
    }
    let mut total: i128 = 0;
    for (j, (pos, d)) in demands.iter().enumerate() {
        let need = *d as i128 * q;
        total += need;
        net.add_edge(1 + ns + j, sink, need);
        for s in bounds.ball(*pos, r) {
            let si = supplier_index[&s];
            // A supplier can ship its whole tank to one demand point.
            net.add_edge(1 + si, 1 + ns + j, p);
        }
    }
    net.max_flow(0, sink) == total
}

/// One flow assignment `f_ij` of LP (2.1): `amount` units shipped from the
/// vehicle at `from` to the demand at `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportFlow<const D: usize> {
    /// Supplying vehicle's vertex.
    pub from: Point<D>,
    /// Receiving demand vertex.
    pub to: Point<D>,
    /// Amount shipped (exact rational).
    pub amount: Ratio,
}

/// Extracts an explicit optimal flow set `F = {f_ij}` witnessing LP (2.1)
/// feasibility at uniform supply `omega` and radius `r`, or `None` when the
/// instance is infeasible at that supply.
///
/// The returned flows satisfy (and tests verify):
/// `Σ_j f_ij ≤ ω` per vehicle, `Σ_i f_ij = d(j)` per demand point, and
/// `‖i−j‖ ≤ r` on every positive flow.
pub fn transport_flows<const D: usize>(
    bounds: &GridBounds<D>,
    demand: &DemandMap<D>,
    r: u64,
    omega: Ratio,
) -> Option<Vec<TransportFlow<D>>> {
    if demand.total() == 0 {
        return Some(Vec::new());
    }
    if omega.is_negative() {
        return None;
    }
    let suppliers: Vec<Point<D>> = dilate(bounds, demand.support(), r).iter().collect();
    let demands: Vec<(Point<D>, u64)> = demand.iter().collect();
    let q = omega.denom();
    let p = omega.numer();
    let ns = suppliers.len();
    let nd = demands.len();
    let sink = 1 + ns + nd;
    let mut net = FlowNetwork::new(sink + 1);
    let supplier_index: HashMap<Point<D>, usize> =
        suppliers.iter().enumerate().map(|(i, s)| (*s, i)).collect();
    for i in 0..ns {
        net.add_edge(0, 1 + i, p);
    }
    let mut handles = Vec::new();
    let mut total: i128 = 0;
    for (j, (pos, d)) in demands.iter().enumerate() {
        let need = *d as i128 * q;
        total += need;
        net.add_edge(1 + ns + j, sink, need);
        for s in bounds.ball(*pos, r) {
            let si = supplier_index[&s];
            let h = net.add_edge(1 + si, 1 + ns + j, p);
            handles.push((s, *pos, h));
        }
    }
    if net.max_flow(0, sink) != total {
        return None;
    }
    let flows = handles
        .into_iter()
        .filter_map(|(from, to, h)| {
            let f = net.edge_flow(h);
            (f > 0).then(|| TransportFlow {
                from,
                to,
                amount: Ratio::new(f, q),
            })
        })
        .collect();
    Some(flows)
}

/// The exact LP (2.1) optimum for uniform supplies: by Lemma 2.2.2 this is
/// the maximum density `max_T Σ_{x∈T} d(x) / |N_r(T)|`.
pub fn min_uniform_supply<const D: usize>(
    bounds: &GridBounds<D>,
    demand: &DemandMap<D>,
    r: u64,
) -> Ratio {
    max_density_over_grid(bounds, demand, r, DensityMethod::Direct).ratio
}

/// Feasibility of LP (4.2): vehicle `i` has capacity `p_i·ω` and reach
/// `⌊p_i·r⌋`, where `p_i ∈ [0,1]` is its longevity (Chapter 4). Vehicles
/// not present in `longevity` default to `default_p`.
///
/// # Panics
///
/// Panics if any longevity lies outside `[0, 1]`.
pub fn transport_feasible_longevity<const D: usize>(
    bounds: &GridBounds<D>,
    demand: &DemandMap<D>,
    r: u64,
    omega: Ratio,
    longevity: &HashMap<Point<D>, Ratio>,
    default_p: Ratio,
) -> bool {
    if demand.total() == 0 {
        return true;
    }
    if omega.is_negative() {
        return false;
    }
    let p_of = |pt: Point<D>| -> Ratio {
        let p = longevity.get(&pt).copied().unwrap_or(default_p);
        assert!(
            !p.is_negative() && p <= Ratio::ONE,
            "longevity out of [0,1] at {pt}"
        );
        p
    };
    // Suppliers: anything within max reach r of the demand support.
    let suppliers: Vec<Point<D>> = dilate(bounds, demand.support(), r).iter().collect();
    // Common denominator for all capacities p_i * omega.
    let mut scale: i128 = omega.denom();
    for s in &suppliers {
        let d = (p_of(*s) * omega).denom();
        scale = lcm(scale, d);
        assert!(scale < i128::MAX / 1_000_000, "capacity scale overflow");
    }
    let demands: Vec<(Point<D>, u64)> = demand.iter().collect();
    let ns = suppliers.len();
    let nd = demands.len();
    let sink = 1 + ns + nd;
    let mut net = FlowNetwork::new(sink + 1);
    let mut reach: Vec<u64> = Vec::with_capacity(ns);
    for (i, s) in suppliers.iter().enumerate() {
        let p = p_of(*s);
        let cap = p * omega * Ratio::from_integer(scale);
        debug_assert!(cap.is_integer());
        net.add_edge(0, 1 + i, cap.numer());
        // Reach ⌊p_i · r⌋.
        reach.push((p * Ratio::from_integer(r as i128)).floor().max(0) as u64);
    }
    let supplier_index: HashMap<Point<D>, usize> =
        suppliers.iter().enumerate().map(|(i, s)| (*s, i)).collect();
    let mut total: i128 = 0;
    for (j, (pos, d)) in demands.iter().enumerate() {
        let need = *d as i128 * scale;
        total += need;
        net.add_edge(1 + ns + j, sink, need);
        for s in bounds.ball(*pos, r) {
            let si = supplier_index[&s];
            if s.manhattan(*pos) <= reach[si] {
                net.add_edge(1 + si, 1 + ns + j, need);
            }
        }
    }
    net.max_flow(0, sink) == total
}

fn lcm(a: i128, b: i128) -> i128 {
    fn gcd(mut a: i128, mut b: i128) -> i128 {
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        a
    }
    a / gcd(a, b) * b
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmvrp_grid::pt2;

    fn demand_of(pts: &[(Point<2>, u64)]) -> DemandMap<2> {
        pts.iter().copied().collect()
    }

    #[test]
    fn zero_demand_always_feasible() {
        let b = GridBounds::square(4);
        let inst = TransportInstance::new(b, DemandMap::new(), 2);
        assert!(inst.feasible(Ratio::ZERO));
        assert_eq!(inst.min_supply(), Ratio::ZERO);
    }

    #[test]
    fn radius_zero_requires_local_supply() {
        let b = GridBounds::square(4);
        let inst = TransportInstance::new(b, demand_of(&[(pt2(1, 1), 7)]), 0);
        assert!(inst.feasible(Ratio::from_integer(7)));
        assert!(!inst.feasible(Ratio::new(69, 10)));
        assert_eq!(inst.min_supply(), Ratio::from_integer(7));
    }

    #[test]
    fn min_supply_is_feasibility_threshold() {
        // The machine check of Lemma 2.2.2 (experiment E4): the density value
        // is feasible, anything strictly below is not.
        let b = GridBounds::square(8);
        let d = demand_of(&[(pt2(2, 2), 11), (pt2(2, 3), 4), (pt2(6, 6), 9)]);
        for r in [0u64, 1, 2, 3] {
            let inst = TransportInstance::new(b, d.clone(), r);
            let v = inst.min_supply();
            assert!(inst.feasible(v), "r={r} v={v}");
            if v.is_positive() {
                let below = v * Ratio::new(999, 1000);
                assert!(!inst.feasible(below), "r={r} v={v}");
            }
        }
    }

    #[test]
    fn fractional_supply_feasibility() {
        // 5 units at the center with radius 1: ω = 1 exactly.
        let b = GridBounds::square(5);
        let inst = TransportInstance::new(b, demand_of(&[(pt2(2, 2), 5)]), 1);
        assert!(inst.feasible(Ratio::ONE));
        assert!(!inst.feasible(Ratio::new(99, 100)));
        // 6 units need ω = 6/5.
        let inst = TransportInstance::new(b, demand_of(&[(pt2(2, 2), 6)]), 1);
        assert_eq!(inst.min_supply(), Ratio::new(6, 5));
        assert!(inst.feasible(Ratio::new(6, 5)));
        assert!(!inst.feasible(Ratio::new(119, 100)));
    }

    #[test]
    fn longevity_one_matches_uniform() {
        let b = GridBounds::square(6);
        let d = demand_of(&[(pt2(3, 3), 8), (pt2(1, 1), 2)]);
        let empty = HashMap::new();
        for r in [1u64, 2] {
            for num in 1..=12i128 {
                let omega = Ratio::new(num, 3);
                assert_eq!(
                    transport_feasible(&b, &d, r, omega),
                    transport_feasible_longevity(&b, &d, r, omega, &empty, Ratio::ONE),
                    "r={r} omega={omega}"
                );
            }
        }
    }

    #[test]
    fn dead_vehicles_cannot_ship() {
        let b = GridBounds::square(3);
        let d = demand_of(&[(pt2(1, 1), 3)]);
        // Everyone dead except the demand vertex itself.
        let mut longevity = HashMap::new();
        longevity.insert(pt2(1, 1), Ratio::ONE);
        // With default_p = 0 only the center can serve: needs ω = 3.
        assert!(transport_feasible_longevity(
            &b,
            &d,
            2,
            Ratio::from_integer(3),
            &longevity,
            Ratio::ZERO
        ));
        assert!(!transport_feasible_longevity(
            &b,
            &d,
            2,
            Ratio::new(29, 10),
            &longevity,
            Ratio::ZERO
        ));
        // With everyone alive, ω = 3/5 > 3/|N_1| suffices at r=2 (13 cells).
        let empty = HashMap::new();
        assert!(transport_feasible_longevity(
            &b,
            &d,
            2,
            Ratio::new(3, 9),
            &empty,
            Ratio::ONE
        ));
    }

    #[test]
    fn half_longevity_halves_reach_and_capacity() {
        let b: GridBounds<1> = GridBounds::new([0], [4]);
        let mut d: DemandMap<1> = DemandMap::new();
        d.add(cmvrp_grid::pt1(2), 4);
        let empty = HashMap::new();
        // Full longevity, r=2: suppliers {0..4}, each reach 2 → ω = 4/5.
        assert!(transport_feasible_longevity(
            &b,
            &d,
            2,
            Ratio::new(4, 5),
            &empty,
            Ratio::ONE
        ));
        // Half longevity: reach ⌊2/2⌋ = 1, capacity ω/2 → only 3 suppliers at
        // half rate: need ω/2 * 3 >= 4 → ω >= 8/3.
        assert!(transport_feasible_longevity(
            &b,
            &d,
            2,
            Ratio::new(8, 3),
            &empty,
            Ratio::new(1, 2)
        ));
        assert!(!transport_feasible_longevity(
            &b,
            &d,
            2,
            Ratio::new(26, 10),
            &empty,
            Ratio::new(1, 2)
        ));
    }

    #[test]
    fn flows_witness_feasibility() {
        let b = GridBounds::square(7);
        let d = demand_of(&[(pt2(3, 3), 9), (pt2(1, 5), 4)]);
        for r in [1u64, 2] {
            let v = min_uniform_supply(&b, &d, r);
            let flows = transport_flows(&b, &d, r, v).expect("feasible at optimum");
            // Per-demand coverage is exact.
            for (pos, need) in d.iter() {
                let got = flows
                    .iter()
                    .filter(|f| f.to == pos)
                    .fold(Ratio::ZERO, |acc, f| acc + f.amount);
                assert_eq!(got, Ratio::from_integer(need as i128), "r={r} at {pos}");
            }
            // Per-supplier load within ω and radius respected.
            let mut by_supplier: HashMap<Point<2>, Ratio> = HashMap::new();
            for f in &flows {
                assert!(f.from.manhattan(f.to) <= r, "radius violated");
                assert!(f.amount.is_positive());
                let e = by_supplier.entry(f.from).or_insert(Ratio::ZERO);
                *e = *e + f.amount;
            }
            for (s, load) in by_supplier {
                assert!(load <= v, "r={r}: supplier {s} ships {load} > {v}");
            }
        }
    }

    #[test]
    fn flows_none_when_infeasible() {
        let b = GridBounds::square(5);
        let d = demand_of(&[(pt2(2, 2), 10)]);
        assert!(transport_flows(&b, &d, 1, Ratio::ONE).is_none());
        assert!(transport_flows(&b, &d, 1, Ratio::from_integer(2)).is_some());
    }

    #[test]
    fn flows_empty_for_zero_demand() {
        let b = GridBounds::square(3);
        let flows = transport_flows(&b, &DemandMap::new(), 2, Ratio::ZERO).unwrap();
        assert!(flows.is_empty());
    }

    #[test]
    #[should_panic(expected = "outside bounds")]
    fn demand_outside_bounds_rejected() {
        let b = GridBounds::square(2);
        let _ = TransportInstance::new(b, demand_of(&[(pt2(5, 5), 1)]), 1);
    }

    #[test]
    #[should_panic(expected = "longevity out of")]
    fn longevity_above_one_rejected() {
        let b = GridBounds::square(2);
        let d = demand_of(&[(pt2(0, 0), 1)]);
        let empty = HashMap::new();
        let _ = transport_feasible_longevity(&b, &d, 1, Ratio::ONE, &empty, Ratio::new(3, 2));
    }
}
