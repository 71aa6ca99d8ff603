//! Exactness oracle for `ω*` (Theorem 1.4.1, Lemma 2.2.3).
//!
//! `omega_star` certifies most radius steps with cheap subset ratios and
//! solves `ρ(k)` exactly only where they fall short. Two references check
//! it on seeded random demands in ℓ = 1, 2 and 3:
//!
//! * a per-step scan that solves `ρ(k)` exactly at every `k`, on the
//!   layered graph, so the direct graph `omega_star` uses is cross-checked
//!   too;
//! * brute force over every subset of the support (at most 12 points): the
//!   maximum of `ω_T`, and as the witness the union of all densest subsets
//!   at the fixed-point radius.
//!
//! Value, witness and `radius_steps` must agree exactly.

use cmvrp::core::{omega_star, solve_omega_t, OmegaStar};
use cmvrp::flow::{grid_density::DensityMethod, max_density_over_grid};
use cmvrp::grid::{dilated_size, DemandMap, GridBounds, Point};
use cmvrp::util::{Ratio, Rng};

/// `ω*` by the plain scan: `ρ(k)` solved exactly at every step `k`.
fn per_step<const D: usize>(b: &GridBounds<D>, d: &DemandMap<D>) -> (Ratio, Vec<Point<D>>, u64) {
    if d.total() == 0 {
        return (Ratio::ZERO, Vec::new(), 0);
    }
    let mut k = 0u64;
    loop {
        let rho = max_density_over_grid(b, d, k, DensityMethod::Layered);
        let floor = Ratio::from_integer(k as i128);
        if rho.ratio < floor + Ratio::ONE {
            return (rho.ratio.max(floor), rho.subset, k + 1);
        }
        k += 1;
    }
}

/// Brute force over all nonempty subsets of the support: `max_T ω_T`, and
/// the union of the subsets of largest density at radius `k`.
fn brute<const D: usize>(b: &GridBounds<D>, d: &DemandMap<D>, k: u64) -> (Ratio, Vec<Point<D>>) {
    let support: Vec<Point<D>> = d.support().collect();
    assert!(support.len() <= 12, "brute force needs a small support");
    let subset = |mask: u32| -> Vec<Point<D>> {
        (0..support.len())
            .filter(|i| mask >> i & 1 == 1)
            .map(|i| support[i])
            .collect()
    };
    let mut omega = Ratio::ZERO;
    let mut densest = Ratio::ZERO;
    let mut union = 0u32;
    for mask in 1u32..(1 << support.len()) {
        let t = subset(mask);
        omega = omega.max(solve_omega_t(b, d, &t));
        let weight = d.sum_over(t.iter().copied()) as i128;
        let density = Ratio::new(weight, dilated_size(b, t.iter().copied(), k) as i128);
        if density > densest {
            densest = density;
            union = mask;
        } else if density == densest {
            union |= mask;
        }
    }
    (omega, subset(union))
}

/// Asserts `omega_star` agrees with both references and returns it.
fn check<const D: usize>(label: &str, b: &GridBounds<D>, d: &DemandMap<D>) -> OmegaStar<D> {
    let star = omega_star(b, d);
    let (value, witness, steps) = per_step(b, d);
    assert_eq!(star.value, value, "{label}: value vs per-step scan");
    assert_eq!(star.witness, witness, "{label}: witness vs per-step scan");
    assert_eq!(star.radius_steps, steps, "{label}: steps vs per-step scan");
    assert!(
        (1..=star.radius_steps).contains(&star.exact_solves),
        "{label}: {} exact solves over {} steps",
        star.exact_solves,
        star.radius_steps
    );
    if d.support_len() <= 12 {
        let (value, witness) = brute(b, d, star.radius_steps - 1);
        assert_eq!(star.value, value, "{label}: value vs brute force");
        assert_eq!(star.witness, witness, "{label}: witness vs brute force");
    }
    star
}

/// A uniformly random point of `b`.
fn anywhere<const D: usize>(rng: &mut Rng, b: &GridBounds<D>) -> Point<D> {
    Point::new(std::array::from_fn(|i| {
        rng.gen_range(b.min()[i]..=b.max()[i])
    }))
}

/// A random point on the boundary of `b`: a corner when `corner`, else a
/// point with one random axis pinned to a face.
fn clipped<const D: usize>(rng: &mut Rng, b: &GridBounds<D>, corner: bool) -> Point<D> {
    let face = rng.gen_range(0..D);
    Point::new(std::array::from_fn(|i| {
        if corner || i == face {
            if rng.gen_bool(0.5) {
                b.min()[i]
            } else {
                b.max()[i]
            }
        } else {
            rng.gen_range(b.min()[i]..=b.max()[i])
        }
    }))
}

/// Corner- and edge-clipped points, one heavy point among light ones, and
/// a random field larger than brute force can take.
fn random_cases<const D: usize>(b: GridBounds<D>, seed: u64) {
    let mut rng = Rng::seed_from_u64(seed);
    for trial in 0..4 {
        let mut d = DemandMap::new();
        for _ in 0..rng.gen_range(2..=9) {
            let corner = rng.gen_bool(0.5);
            d.add(clipped(&mut rng, &b, corner), rng.gen_range(1..60));
        }
        check(&format!("{D}-D clipped #{trial}"), &b, &d);

        let mut d = DemandMap::new();
        d.add(anywhere(&mut rng, &b), rng.gen_range(100..1500));
        for _ in 0..rng.gen_range(0..=6) {
            d.add(anywhere(&mut rng, &b), rng.gen_range(1..6));
        }
        check(&format!("{D}-D heavy #{trial}"), &b, &d);

        let mut d = DemandMap::new();
        for _ in 0..rng.gen_range(20..40) {
            d.add(anywhere(&mut rng, &b), rng.gen_range(1..25));
        }
        check(&format!("{D}-D field #{trial}"), &b, &d);
    }
}

/// Every point of the small box `b` carries demand `c`: the full support is
/// densest at every radius, so it is the witness.
fn uniform_field<const D: usize>(b: GridBounds<D>) {
    let all: Vec<Point<D>> = b.iter().collect();
    for c in [1u64, 2, 6] {
        let d: DemandMap<D> = all.iter().map(|&p| (p, c)).collect();
        let star = check(&format!("{D}-D uniform c={c}"), &b, &d);
        assert_eq!(star.witness, all, "{D}-D uniform c={c}");
    }
}

#[test]
fn omega_star_is_exact_on_a_line() {
    random_cases(GridBounds::<1>::cube(40), 11);
    uniform_field(GridBounds::new([0], [9]));
}

#[test]
fn omega_star_is_exact_on_the_plane() {
    random_cases(GridBounds::square(14), 12);
    uniform_field(GridBounds::new([0, 0], [1, 4]));
}

#[test]
fn omega_star_is_exact_in_three_dimensions() {
    random_cases(GridBounds::<3>::cube(7), 13);
    uniform_field(GridBounds::new([0, 0, 0], [1, 1, 1]));
}

#[test]
fn demand_wholly_outside_the_bounds_has_zero_omega() {
    let b = GridBounds::square(8);
    let mut d = DemandMap::new();
    d.add(Point::new([20, 3]), 50);
    d.add(Point::new([-1, -1]), 9);
    let star = omega_star(&b, &d);
    assert_eq!(star.value, Ratio::ZERO);
    assert_eq!(star.radius_steps, 1);
    assert!(star.witness.is_empty());
    assert_eq!(per_step(&b, &d), (Ratio::ZERO, Vec::new(), 1));
}
