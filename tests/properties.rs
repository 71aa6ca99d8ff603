//! Cross-crate property tests: randomized instances exercising the
//! thesis' central identities and inequalities.
//!
//! Each property runs a fixed number of cases drawn from a seeded
//! [`Rng`], so every failure names a reproducible case.

use cmvrp::core::{approx_woff, omega_c, omega_star, plan_offline, solve_omega_t, verify_plan};
use cmvrp::flow::alpha_h::{
    alpha_to_h, h_mass, h_to_alpha, is_laminar, objective_22, objective_23,
};
use cmvrp::flow::{min_uniform_supply, transport_feasible};
use cmvrp::grid::{dilate, dilate_bruteforce, pt2, DemandMap, GridBounds, Point};
use cmvrp::util::{Ratio, Rng};

/// Cases per property.
const CASES: usize = 24;

/// A small random demand map over an `n×n` grid: 1 to `max_points`
/// points, each with demand 1 to `max_d`.
fn demand_map(rng: &mut Rng, n: i64, max_points: usize, max_d: u64) -> DemandMap<2> {
    let len = rng.gen_range(1..=max_points);
    (0..len)
        .map(|_| {
            let p = pt2(rng.gen_range(0..n), rng.gen_range(0..n));
            (p, rng.gen_range(1..=max_d))
        })
        .collect()
}

#[test]
fn dilation_equals_ball_union() {
    let mut rng = Rng::seed_from_u64(0xD11A);
    for case in 0..CASES {
        let demand = demand_map(&mut rng, 9, 6, 3);
        let r = rng.gen_range(0u64..4);
        let b = GridBounds::square(9);
        let seeds: Vec<Point<2>> = demand.support().collect();
        let fast = dilate(&b, seeds.iter().copied(), r);
        let brute = dilate_bruteforce(&b, seeds.iter().copied(), r);
        assert_eq!(fast.len() as usize, brute.len(), "case {case}");
        for p in &brute {
            assert!(fast.contains(*p), "case {case}: {p:?}");
        }
    }
}

#[test]
fn duality_lp21() {
    let mut rng = Rng::seed_from_u64(0x1D21);
    for case in 0..CASES {
        let demand = demand_map(&mut rng, 8, 5, 20);
        let r = rng.gen_range(0u64..3);
        // Lemma 2.2.2: the density value is the feasibility threshold.
        let b = GridBounds::square(8);
        let v = min_uniform_supply(&b, &demand, r);
        assert!(transport_feasible(&b, &demand, r, v), "case {case}");
        if v.is_positive() {
            let below = v * Ratio::new(99, 100);
            assert!(!transport_feasible(&b, &demand, r, below), "case {case}");
        }
    }
}

#[test]
fn omega_chain() {
    let mut rng = Rng::seed_from_u64(0x0C4A);
    for case in 0..CASES {
        let demand = demand_map(&mut rng, 10, 6, 50);
        // ω_c ≤ ω* ≤ Ŵ (Algorithm 1) — the full Theorem 1.4.1 chain.
        let b = GridBounds::square(10);
        let wc = omega_c(&b, &demand);
        let star = omega_star(&b, &demand).value;
        let approx = approx_woff(&b, &demand);
        assert!(wc <= star, "case {case}: ω_c={wc} > ω*={star}");
        assert!(star <= approx, "case {case}: ω*={star} > Ŵ={approx}");
        assert!(
            approx <= star.max(Ratio::ONE) * Ratio::from_integer(40),
            "case {case}"
        );
    }
}

#[test]
fn witness_subset_attains_lower_bound() {
    let mut rng = Rng::seed_from_u64(0x3175);
    for case in 0..CASES {
        let demand = demand_map(&mut rng, 10, 5, 40);
        // The ω* witness is a genuine certificate: its own ω_T is ≥ the
        // reported value minus boundary effects (equality on interior
        // crossings).
        let b = GridBounds::square(10);
        let res = omega_star(&b, &demand);
        if !res.witness.is_empty() {
            let wt = solve_omega_t(&b, &demand, &res.witness);
            assert!(wt >= res.value.min(wt), "trivially true guard");
            // And no witness can exceed ω* by definition.
            assert!(wt <= res.value, "case {case}: ω_T={wt} > ω*={}", res.value);
        }
    }
}

#[test]
fn plan_always_serves_everything() {
    let mut rng = Rng::seed_from_u64(0x9A11);
    for case in 0..CASES {
        let demand = demand_map(&mut rng, 12, 7, 60);
        let b = GridBounds::square(12);
        let plan = plan_offline(&b, &demand).unwrap();
        let check = verify_plan(&b, &demand, &plan);
        assert!(check.is_valid(), "case {case}: {:?}", check.violations);
        assert_eq!(check.total_service, demand.total(), "case {case}");
    }
}

#[test]
fn mutated_plan_rejected() {
    let mut rng = Rng::seed_from_u64(0x3A7E);
    for case in 0..CASES {
        let demand = demand_map(&mut rng, 8, 4, 12);
        let b = GridBounds::square(8);
        let plan = plan_offline(&b, &demand).unwrap();
        // Remove an entire assignment: coverage must break.
        let mut assignments = plan.assignments().to_vec();
        if !assignments.is_empty() {
            assignments.remove(0);
            let tampered = cmvrp::core::OfflinePlan::from_assignments(assignments);
            let check = verify_plan(&b, &demand, &tampered);
            assert!(!check.is_valid(), "case {case}");
        }
    }
}

#[test]
fn alpha_h_identities() {
    let mut rng = Rng::seed_from_u64(0xA1F4);
    for case in 0..CASES {
        let len = rng.gen_range(1usize..10);
        // Lemma 2.2.1 (experiment F1): reconstruction, budget, laminarity,
        // and the objective equality that powers the duality proof.
        let alpha: Vec<Ratio> = (0..len)
            .map(|_| Ratio::from_integer(i128::from(rng.gen_range(0i64..20))))
            .collect();
        let h = alpha_to_h(&alpha);
        assert!(is_laminar(&h), "case {case}");
        assert_eq!(h_to_alpha(alpha.len(), &h), alpha.clone(), "case {case}");
        let total = alpha.iter().fold(Ratio::ZERO, |a, b| a + *b);
        assert_eq!(h_mass(&h), total, "case {case}");
        let d: Vec<u64> = (0..alpha.len()).map(|i| (i as u64 * 7 + 1) % 5).collect();
        for r in 0..3usize {
            let (lhs, rhs) = (objective_22(&d, r, &alpha), objective_23(&d, r, &h));
            assert_eq!(lhs, rhs, "case {case}, r={r}");
        }
    }
}

#[test]
fn omega_t_monotone_under_demand_increase() {
    let mut rng = Rng::seed_from_u64(0x0307);
    for case in 0..CASES {
        let demand = demand_map(&mut rng, 9, 4, 20);
        let extra = rng.gen_range(1u64..10);
        // Adding demand at a support point can only raise ω_T.
        let b = GridBounds::square(9);
        let t: Vec<Point<2>> = demand.support().collect();
        let before = solve_omega_t(&b, &demand, &t);
        let mut bigger = demand.clone();
        let p = t[0];
        bigger.add(p, extra);
        let after = solve_omega_t(&b, &bigger, &t);
        assert!(after >= before, "case {case}");
    }
}
