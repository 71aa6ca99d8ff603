//! Quickstart: compute every Chapter 2 quantity for a small workload.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use cmvrp::prelude::*;

fn main() {
    // A 17x17 sensor field with a hotspot and some background events.
    let bounds = GridBounds::square(17);
    let mut demand = DemandMap::new();
    demand.add(pt2(8, 8), 120); // hotspot
    demand.add(pt2(3, 12), 10);
    demand.add(pt2(13, 2), 7);

    let inst = Instance::new(bounds, demand.clone());

    // Exact lower bound of Theorem 1.4.1: ω* = max_T ω_T, via the
    // parametric-flow solver, with a witness subset.
    let star = inst.omega_star();
    println!("ω* (exact LP optimum)         = {}", star.value);
    println!("  witness |T|                 = {}", star.witness.len());

    // Linear-time cube bound of Corollary 2.2.7.
    println!("ω_c (cube bound)              = {}", inst.omega_c());

    // The paper's Algorithm 1 (40-approximation in the plane).
    println!("Algorithm 1 estimate          = {}", inst.approx_woff());

    // The constructive Lemma 2.2.5 plan, independently verified.
    let plan = inst.plan_offline().expect("consistent instance");
    let check = inst.verify(&plan);
    assert!(check.is_valid(), "{:?}", check.violations);
    println!("plan: vehicles participating  = {}", plan.len());
    println!("plan: max per-vehicle energy  = {}", check.max_energy);
    println!(
        "plan: fleet travel / service  = {} / {}",
        check.total_travel, check.total_service
    );

    // The Theorem 1.4.1 sandwich, numerically.
    let (lo, hi) = inst.woff_bounds();
    println!("Theorem 1.4.1: {lo} <= Woff <= {hi}");
    assert!(lo.to_f64() <= check.max_energy as f64);

    // And the same jobs served fully on-line (Chapter 3).
    let jobs = arrivals::from_demand(&demand, Ordering::Shuffled, 7);
    let report = ExecConfig::new()
        .execute(bounds, &jobs, OnlineConfig::default(), &mut NullSink)
        .expect("engine run")
        .report;
    println!(
        "on-line: served {}/{} with capacity {} (max used {}, {} replacements)",
        report.served,
        report.served + report.unserved,
        report.capacity,
        report.max_energy_used,
        report.replacements
    );
    assert_eq!(report.unserved, 0);
}
