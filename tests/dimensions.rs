//! Integration: the thesis' "general ℓ" claim — the full pipeline in 1-D
//! and 3-D (the analysis is performed for general ℓ; §2.3 notes higher
//! dimensions are straightforward extensions).

use cmvrp::core::{approx_woff, offline_factor, omega_c, omega_star, plan_offline, verify_plan};
use cmvrp::grid::{pt1, pt3, DemandMap, GridBounds};
use cmvrp::obs::NullSink;
use cmvrp::online::OnlineConfig;
use cmvrp::util::Ratio;
use cmvrp::workloads::JobSequence;
use cmvrp::ExecConfig;

#[test]
fn one_dimensional_offline_pipeline() {
    let bounds: GridBounds<1> = GridBounds::new([0], [60]);
    let mut demand: DemandMap<1> = DemandMap::new();
    demand.add(pt1(30), 80);
    demand.add(pt1(10), 12);

    let wc = omega_c(&bounds, &demand);
    let star = omega_star(&bounds, &demand).value;
    let approx = approx_woff(&bounds, &demand);
    assert!(wc <= star);
    assert!(star <= approx);
    // Algorithm 1 factor for ℓ=1 is 2·(2·3+1) = 14.
    assert!(approx <= star.max(Ratio::ONE) * Ratio::from_integer(14));

    let plan = plan_offline(&bounds, &demand).unwrap();
    let check = verify_plan(&bounds, &demand, &plan);
    assert!(check.is_valid(), "{:?}", check.violations);
    let upper = (star * Ratio::from_integer(offline_factor(1) as i128)).ceil() as u64 + 2;
    assert!(check.max_energy <= upper, "{} > {upper}", check.max_energy);
}

#[test]
fn one_dimensional_online_pipeline() {
    let bounds: GridBounds<1> = GridBounds::new([0], [40]);
    let mut demand: DemandMap<1> = DemandMap::new();
    demand.add(pt1(20), 120);
    let jobs: JobSequence<1> = std::iter::repeat_n(pt1(20), 120).collect();
    let _ = demand; // demand only documents the workload shape
    let report = ExecConfig::new()
        .execute(bounds, &jobs, OnlineConfig::default(), &mut NullSink)
        .expect("engine run")
        .report;
    assert_eq!(report.unserved, 0, "{report:?}");
    assert!(report.replacements > 0);
    assert!(report.max_energy_used <= report.capacity);
}

#[test]
fn three_dimensional_offline_pipeline() {
    let bounds: GridBounds<3> = GridBounds::cube(11);
    let mut demand: DemandMap<3> = DemandMap::new();
    demand.add(pt3(5, 5, 5), 400);
    demand.add(pt3(2, 2, 2), 30);

    let wc = omega_c(&bounds, &demand);
    let star = omega_star(&bounds, &demand).value;
    assert!(wc <= star, "ω_c={wc} > ω*={star}");

    let plan = plan_offline(&bounds, &demand).unwrap();
    let check = verify_plan(&bounds, &demand, &plan);
    assert!(check.is_valid(), "{:?}", check.violations);
    // ℓ=3 factor is 2·27+3 = 57.
    let upper = (star * Ratio::from_integer(offline_factor(3) as i128)).ceil() as u64 + 3;
    assert!(check.max_energy <= upper, "{} > {upper}", check.max_energy);
}

#[test]
fn three_dimensional_online_pipeline() {
    let bounds: GridBounds<3> = GridBounds::cube(6);
    let jobs: JobSequence<3> = std::iter::repeat_n(pt3(3, 3, 3), 150).collect();
    let report = ExecConfig::new()
        .execute(bounds, &jobs, OnlineConfig::default(), &mut NullSink)
        .expect("engine run")
        .report;
    assert_eq!(report.unserved, 0, "{report:?}");
    assert!(report.max_energy_used <= report.capacity);
}

#[test]
fn omega_scaling_exponent_depends_on_dimension() {
    // Point demand: ω* ~ d^(1/(ℓ+1)) — the dimension shows up in the
    // exponent (√ in 1-D, cube root in 2-D, fourth root in 3-D).
    // 1-D: growth for 4x demand should be ~2.
    let bounds1: GridBounds<1> = GridBounds::new([0], [400]);
    let w = |d: u64| {
        let mut m: DemandMap<1> = DemandMap::new();
        m.add(pt1(200), d);
        omega_star(&bounds1, &m).value.to_f64()
    };
    let growth1 = w(4000) / w(1000);
    assert!((1.7..=2.4).contains(&growth1), "1-D √ law: {growth1}");

    // 3-D: growth for 16x demand should be ~2 (fourth-root law).
    let bounds3: GridBounds<3> = GridBounds::cube(21);
    let w3 = |d: u64| {
        let mut m: DemandMap<3> = DemandMap::new();
        m.add(pt3(10, 10, 10), d);
        omega_star(&bounds3, &m).value.to_f64()
    };
    let growth3 = w3(16_000) / w3(1_000);
    assert!(
        (1.5..=2.6).contains(&growth3),
        "3-D fourth-root law: {growth3}"
    );
}
