//! The quantity `ω_T` and the exact optimum `ω* = max_T ω_T`
//! (equation (1.1), Lemmas 2.2.2/2.2.3, Theorem 1.4.1).
//!
//! For a nonempty `T ⊆ Z^ℓ`, `ω_T` solves `ω_T · |N_{ω_T}(T)| = Σ_{x∈T}
//! d(x)`. On the lattice `|N_ω(T)|` is a step function of `ω` (only `⌊ω⌋`
//! matters), so the left side is piecewise linear and strictly increasing:
//! the crossing is found exactly in rational arithmetic.
//!
//! `ω*` maximizes `ω_T` over **all** subsets. By Lemma 2.2.3 it is the
//! fixed point of the non-increasing step function `r ↦ ρ(r) = max_T
//! Σ_{x∈T} d(x) / |N_r(T)|`, and each `ρ(k)` is an exact max-density value
//! computed by `cmvrp-flow`. We scan integer steps `k = 0, 1, 2, …` until
//! the crossing (interior `ρ(k) ∈ [k, k+1)`, or the boundary `k` when `ρ`
//! drops below it). A step only needs `ρ(k)` exactly when no cheap subset
//! ratio already reaches `k+1`; the rest are certified without a max-flow
//! (DESIGN.md §3.1).

use cmvrp_flow::grid_density::DensityMethod;
use cmvrp_flow::max_density_over_grid;
use cmvrp_grid::{ball_size_clipped, dilated_size, DemandMap, GridBounds, Point};
use cmvrp_util::Ratio;

/// Solves `ω · |N_ω(T) ∩ bounds| = Σ_{x∈T} d(x)` for `ω` (equation (1.1)).
///
/// Returns 0 when `T` carries no demand. Because `|N_ω(T)|` only changes at
/// integer `ω`, the solution lies on the step `[k, k+1)` where
/// `k·|N_k(T)| ≤ Σd < (k+1)·|N_k(T)|` fails to hold on earlier steps; there
/// the exact crossing is `Σd / |N_k(T)|`. When the step function jumps past
/// `Σd` at an integer boundary, that boundary is the (infimum) solution.
///
/// # Panics
///
/// Panics if `T` is empty while carrying demand (impossible through the
/// public API) or contains points outside `bounds`.
///
/// # Examples
///
/// ```
/// use cmvrp_core::solve_omega_t;
/// use cmvrp_grid::{DemandMap, GridBounds, pt2};
/// use cmvrp_util::Ratio;
///
/// let b = GridBounds::square(21);
/// let mut d = DemandMap::new();
/// d.add(pt2(10, 10), 13);
/// // |N_1| = 5 and |N_2| = 13. On [1, 2) the left side ω·5 stays below
/// // 2·5 = 10 < 13; at ω = 2 it jumps to 2·13 = 26 ≥ 13. So ω_T = 2.
/// assert_eq!(solve_omega_t(&b, &d, &[pt2(10, 10)]), Ratio::from_integer(2));
/// ```
pub fn solve_omega_t<const D: usize>(
    bounds: &GridBounds<D>,
    demand: &DemandMap<D>,
    t: &[Point<D>],
) -> Ratio {
    for p in t {
        assert!(bounds.contains(*p), "T contains {p} outside bounds");
    }
    let total = demand.sum_over(t.iter().copied()) as i128;
    if total == 0 {
        return Ratio::ZERO;
    }
    assert!(!t.is_empty(), "nonempty demand on empty T");
    // Find the step [k, k+1) containing the crossing of ω·|N_⌊ω⌋(T)| = Σd.
    let mut k: u64 = 0;
    loop {
        let size = dilated_size(bounds, t.iter().copied(), k) as i128;
        // On [k, k+1) the left side is ω·size: candidate ω = Σd / size.
        let candidate = Ratio::new(total, size);
        if candidate < Ratio::from_integer(k as i128) {
            // The step function already jumped past Σd at ω = k.
            return Ratio::from_integer(k as i128);
        }
        if candidate < Ratio::from_integer(k as i128 + 1) {
            return candidate;
        }
        k += 1;
        // Termination: size is nondecreasing and ≥ 1, so candidate ≤ Σd and
        // k eventually exceeds it.
        debug_assert!(k as i128 <= total + 1, "omega_T scan ran away");
    }
}

/// The exact optimum of Theorem 1.4.1, with a witness subset.
#[derive(Debug, Clone)]
pub struct OmegaStar<const D: usize> {
    /// `ω* = max_{T} ω_T`.
    pub value: Ratio,
    /// The largest maximizer of `Σ_{x∈T} d(x)/|N_k(T)|` at the fixed-point
    /// radius `k` (the union of all densest subsets), in point order.
    pub witness: Vec<Point<D>>,
    /// Number of integer radius steps examined.
    pub radius_steps: u64,
    /// Number of those steps that ran the exact max-density solve; the
    /// others were certified by a cheap subset ratio.
    pub exact_solves: u64,
}

/// `ρ(k) = max_T Σ_{x∈T} d(x) / |N_k(T)|` for an integer radius `k`.
pub fn rho<const D: usize>(bounds: &GridBounds<D>, demand: &DemandMap<D>, k: u64) -> Ratio {
    max_density_over_grid(bounds, demand, k, DensityMethod::Direct).ratio
}

/// Computes `ω* = max_{T⊆Z^ℓ} ω_T` exactly (Lemma 2.2.3): the fixed point
/// of `ω = ρ(⌊ω⌋)`.
///
/// Scans integer radius steps `k`; the number of steps is at most
/// `ρ(0) = max_x d(x)` and in practice tiny because `ρ` falls off quickly.
/// Before solving `ρ(k)` exactly it tries three subset ratios, each a lower
/// bound on `ρ(k)`: the heaviest point over its ball, the whole support, and
/// the last exact witness, each over its radius-`k` dilation. When one
/// reaches `k+1`, so does `ρ(k)`, and the scan moves on without a max-flow.
/// The step the fixed point lands on always has `ρ(k) < k+1`, so it is
/// always solved exactly.
///
/// # Examples
///
/// ```
/// use cmvrp_core::omega_star;
/// use cmvrp_grid::{DemandMap, GridBounds, pt2};
/// use cmvrp_util::Ratio;
///
/// let b = GridBounds::square(21);
/// let mut d = DemandMap::new();
/// d.add(pt2(10, 10), 4);
/// // ρ(0) = 4 ≥ 1, so ω* ≥ 1. ρ(1) = 4/5 < 1, so ω = ρ(⌊ω⌋) has no
/// // solution in [1, 2): the fixed point is the boundary ω* = 1.
/// let star = omega_star(&b, &d);
/// assert_eq!(star.value, Ratio::ONE);
/// assert_eq!((star.radius_steps, star.exact_solves), (2, 1));
/// ```
pub fn omega_star<const D: usize>(bounds: &GridBounds<D>, demand: &DemandMap<D>) -> OmegaStar<D> {
    if demand.total() == 0 {
        return OmegaStar {
            value: Ratio::ZERO,
            witness: Vec::new(),
            radius_steps: 0,
            exact_solves: 0,
        };
    }
    let support: Vec<Point<D>> = demand.support().filter(|p| bounds.contains(*p)).collect();
    let total = demand.sum_over(support.iter().copied());
    let heaviest = support.iter().copied().max_by_key(|p| demand.get(*p));
    // The witness of the last exact step, and its demand.
    let mut solved: Option<(Vec<Point<D>>, u64)> = None;
    let mut exact_solves = 0;
    let mut k: u64 = 0;
    loop {
        // Does `weight / size` reach k+1? Each candidate is one subset's
        // ratio, so a yes proves ρ(k) ≥ k+1.
        let reaches = |weight: u64, size: u64| weight as u128 >= (k as u128 + 1) * size as u128;
        let certified = heaviest
            .is_some_and(|p| reaches(demand.get(p), ball_size_clipped(bounds, p, k)))
            || solved.as_ref().is_some_and(|(witness, weight)| {
                reaches(*weight, dilated_size(bounds, witness.iter().copied(), k))
            })
            || (!support.is_empty()
                && reaches(total, dilated_size(bounds, support.iter().copied(), k)));
        if !certified {
            exact_solves += 1;
            let res = max_density_over_grid(bounds, demand, k, DensityMethod::Direct);
            // Does the fixed point land on this step, i.e. ρ(k) < k+1?
            if res.ratio < Ratio::from_integer(k as i128 + 1) {
                // Interior crossing ρ(k) ∈ [k, k+1), or ρ dropped below k
                // between steps and the crossing is the boundary k.
                return OmegaStar {
                    value: res.ratio.max(Ratio::from_integer(k as i128)),
                    witness: res.subset,
                    radius_steps: k + 1,
                    exact_solves,
                };
            }
            let weight = demand.sum_over(res.subset.iter().copied());
            solved = Some((res.subset, weight));
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmvrp_grid::pt2;

    fn demand_of(pts: &[(Point<2>, u64)]) -> DemandMap<2> {
        pts.iter().copied().collect()
    }

    /// Brute-force `max_T ω_T` over all nonempty subsets of the support
    /// (valid because adding zero-demand points only grows `N_r(T)`).
    fn brute_omega_star(bounds: &GridBounds<2>, demand: &DemandMap<2>) -> Ratio {
        let support: Vec<Point<2>> = demand.support().collect();
        assert!(support.len() <= 12);
        let mut best = Ratio::ZERO;
        for mask in 1u32..(1 << support.len()) {
            let t: Vec<Point<2>> = (0..support.len())
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| support[i])
                .collect();
            best = best.max(solve_omega_t(bounds, demand, &t));
        }
        best
    }

    #[test]
    fn omega_t_zero_demand() {
        let b = GridBounds::square(5);
        let d = DemandMap::new();
        assert_eq!(solve_omega_t(&b, &d, &[pt2(2, 2)]), Ratio::ZERO);
    }

    #[test]
    fn omega_t_interior_crossing() {
        let b = GridBounds::square(41);
        // d = 10 jumps over the step [1, 2): 10/5 = 2 is not below 2, and on
        // [2, 3) 10/13 < 2, so the crossing is the boundary ω = 2.
        let d = demand_of(&[(pt2(20, 20), 10)]);
        assert_eq!(
            solve_omega_t(&b, &d, &[pt2(20, 20)]),
            Ratio::from_integer(2)
        );
        // d = 9 crosses inside [1, 2): ω·5 = 9 at ω = 9/5.
        let d = demand_of(&[(pt2(20, 20), 9)]);
        assert_eq!(solve_omega_t(&b, &d, &[pt2(20, 20)]), Ratio::new(9, 5));
    }

    #[test]
    fn omega_t_subunit() {
        let b = GridBounds::square(5);
        // Tiny demand: ω ∈ [0,1): |N_0| = |T| = 1 → ω = d.
        // Only sensible when d < 1, impossible for integer d ≥ 1 except via
        // the boundary: d=1 gives candidate 1 not < 1 → next step [1,2):
        // |N_1 ∩ grid| = 5 → 1/5 < 1 → boundary ω = 1.
        let d = demand_of(&[(pt2(2, 2), 1)]);
        assert_eq!(solve_omega_t(&b, &d, &[pt2(2, 2)]), Ratio::ONE);
    }

    #[test]
    fn omega_t_monotone_in_demand() {
        let b = GridBounds::square(31);
        let mut prev = Ratio::ZERO;
        for dval in [1u64, 5, 20, 80, 320] {
            let d = demand_of(&[(pt2(15, 15), dval)]);
            let w = solve_omega_t(&b, &d, &[pt2(15, 15)]);
            assert!(w >= prev, "d={dval}");
            prev = w;
        }
    }

    #[test]
    fn omega_t_consistency_identity() {
        // ω_T·|N_⌊ω_T⌋(T)| ≥ Σd with equality on interior crossings.
        let b = GridBounds::square(17);
        let d = demand_of(&[(pt2(8, 8), 37), (pt2(9, 8), 12)]);
        let t = vec![pt2(8, 8), pt2(9, 8)];
        let w = solve_omega_t(&b, &d, &t);
        let k = w.floor() as u64;
        let size = dilated_size(&b, t.iter().copied(), k) as i128;
        let lhs = w * Ratio::from_integer(size);
        assert!(lhs >= Ratio::from_integer(49));
    }

    #[test]
    fn omega_star_matches_bruteforce() {
        let b = GridBounds::square(12);
        let cases = [
            demand_of(&[(pt2(5, 5), 30)]),
            demand_of(&[(pt2(2, 2), 10), (pt2(2, 3), 10), (pt2(9, 9), 3)]),
            demand_of(&[(pt2(0, 0), 17), (pt2(11, 11), 17)]),
            demand_of(&[
                (pt2(4, 4), 1),
                (pt2(4, 5), 2),
                (pt2(5, 4), 3),
                (pt2(5, 5), 4),
            ]),
        ];
        for (i, d) in cases.iter().enumerate() {
            let fast = omega_star(&b, d).value;
            let brute = brute_omega_star(&b, d);
            assert_eq!(fast, brute, "case {i}");
        }
    }

    #[test]
    fn omega_star_random_cross_check() {
        let mut rng = cmvrp_util::Rng::seed_from_u64(99);
        let b = GridBounds::square(10);
        for trial in 0..8 {
            let mut d = DemandMap::new();
            for _ in 0..rng.gen_range(1..6) {
                d.add(
                    pt2(rng.gen_range(0..10), rng.gen_range(0..10)),
                    rng.gen_range(1..40),
                );
            }
            assert_eq!(
                omega_star(&b, &d).value,
                brute_omega_star(&b, &d),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn omega_star_zero() {
        let b = GridBounds::square(4);
        let r = omega_star(&b, &DemandMap::new());
        assert_eq!(r.value, Ratio::ZERO);
        assert!(r.witness.is_empty());
    }

    #[test]
    fn omega_star_witness_attains() {
        let b = GridBounds::square(15);
        let d = demand_of(&[(pt2(7, 7), 50), (pt2(7, 8), 50), (pt2(0, 0), 2)]);
        let r = omega_star(&b, &d);
        // The witness subset's own ω_T equals ω* at interior crossings, and
        // is at least the boundary value otherwise.
        let w = solve_omega_t(&b, &d, &r.witness);
        assert!(w >= r.value || r.value.is_integer());
    }

    /// The work-count gate: value, steps, witness size and the number of
    /// exact max-flow solves on the benchmark's demands. Counts, not
    /// times, so it holds on any host.
    #[test]
    fn exact_solves_on_benchmark_demands() {
        let cases = [
            (
                "uniform:grid=120,jobs=28800,seed=7",
                Ratio::from_integer(2),
                3,
                12_437,
                1,
            ),
            (
                "clusters:grid=64,k=8,jobs=50000,seed=7",
                Ratio::new(17662, 725),
                25,
                8,
                2,
            ),
            (
                "point:grid=1024,demand=2000",
                Ratio::from_integer(10),
                11,
                1,
                1,
            ),
        ];
        for (spec, value, steps, witness, max_solves) in cases {
            let config: cmvrp_workloads::WorkloadConfig = spec.parse().unwrap();
            let (b, d) = config.generate().unwrap();
            let star = omega_star(&b, &d);
            assert_eq!(star.value, value, "{spec}");
            assert_eq!(star.radius_steps, steps, "{spec}");
            assert_eq!(star.witness.len(), witness, "{spec}");
            assert!(
                (1..=max_solves).contains(&star.exact_solves),
                "{spec}: {} exact solves",
                star.exact_solves
            );
        }
    }

    #[test]
    fn omega_star_scales_with_point_demand() {
        // For a single point, ω* ~ d^(1/3) in 2-D (Example 3 of §2.1).
        let b = GridBounds::square(61);
        let mut prev = 0.0f64;
        for dval in [10u64, 80, 640] {
            let d = demand_of(&[(pt2(30, 30), dval)]);
            let w = omega_star(&b, &d).value.to_f64();
            if prev > 0.0 {
                let growth = w / prev;
                // Doubling d by 8 should roughly double ω (cube-root law).
                assert!(growth > 1.5 && growth < 3.0, "growth={growth}");
            }
            prev = w;
        }
    }
}
