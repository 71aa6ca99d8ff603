//! Exactness oracle for the support-compressed cube window sums.
//!
//! `max_window_sum`, `omega_c` and `lemma_side` are checked against an
//! enumeration of every legal window start that sums the cells of each
//! window directly, on seeded demands in one, two and three dimensions
//! (the inputs live in `window_sums/inputs.rs`). The fleet provisioning
//! of the four benchmark demands is pinned as well.

#[path = "window_sums/inputs.rs"]
mod inputs;

use cmvrp::core::plan::lemma_side;
use cmvrp::core::{max_window_sum, omega_c};
use cmvrp::grid::{DemandMap, GridBounds};
use cmvrp::online::{provision, OnlineConfig};
use cmvrp::util::Ratio;
use cmvrp::workloads::WorkloadConfig;
use inputs::Case;

/// The heaviest legal side-`s` window: every start from the minimum up to
/// the last start whose window still fits (the minimum alone when `s`
/// exceeds the extent), each window clipped to the bounds and summed cell
/// by cell.
fn brute_window<const D: usize>(bounds: &GridBounds<D>, demand: &DemandMap<D>, s: u64) -> u64 {
    let (min, max) = (bounds.min(), bounds.max());
    let span = s as i64 - 1;
    let last: [i64; D] = std::array::from_fn(|i| (max[i] - span).max(min[i]));
    GridBounds::new(min, last)
        .iter()
        .map(|lo| {
            let hi: [i64; D] = std::array::from_fn(|i| (lo[i] + span).min(max[i]));
            GridBounds::new(lo.coords(), hi)
                .iter()
                .map(|p| demand.get(p))
                .sum::<u64>()
        })
        .max()
        .unwrap_or(0)
}

/// Corollary 2.2.7 from the brute-force window sums: on the piece
/// `⌈ω⌉ = s` the least feasible `ω` is `M(s)/(3s)^ℓ`, floored at `s − 1`.
fn brute_omega_c<const D: usize>(bounds: &GridBounds<D>, demand: &DemandMap<D>) -> Ratio {
    (1u64..)
        .find_map(|s| {
            let m = brute_window(bounds, demand, s) as i128;
            let candidate = Ratio::new(m, (3 * s as i128).pow(D as u32));
            let (floor, ceil) = (
                Ratio::from_integer(s as i128 - 1),
                Ratio::from_integer(s as i128),
            );
            (candidate <= ceil).then(|| candidate.max(floor))
        })
        .expect("some side satisfies the bound")
}

/// Lemma 2.2.5's side from the brute-force window sums: the first `s` with
/// `M(s) ≤ s·(3s)^ℓ`.
fn brute_lemma_side<const D: usize>(bounds: &GridBounds<D>, demand: &DemandMap<D>) -> u64 {
    (1u64..)
        .find(|&s| {
            brute_window(bounds, demand, s) as u128 <= s as u128 * (3 * s as u128).pow(D as u32)
        })
        .expect("some side satisfies the bound")
}

fn check_cases<const D: usize>(cases: &[Case<D>]) {
    for Case {
        name,
        bounds,
        demand,
    } in cases
    {
        let largest = (0..D).map(|i| bounds.extent(i)).max().unwrap_or(1);
        for s in 1..=largest + 2 {
            assert_eq!(
                max_window_sum(bounds, demand, s),
                brute_window(bounds, demand, s),
                "{name}: max_window_sum, s={s}"
            );
        }
        assert_eq!(
            omega_c(bounds, demand),
            brute_omega_c(bounds, demand),
            "{name}: omega_c"
        );
        assert_eq!(
            lemma_side(bounds, demand),
            brute_lemma_side(bounds, demand),
            "{name}: lemma_side"
        );
    }
}

#[test]
fn window_sums_are_exact_on_a_line() {
    check_cases(&inputs::cases_1d());
}

#[test]
fn window_sums_are_exact_on_the_plane() {
    check_cases(&inputs::cases_2d());
}

#[test]
fn window_sums_are_exact_in_three_dimensions() {
    check_cases(&inputs::cases_3d());
}

#[test]
fn provisioning_is_pinned_on_the_benchmark_demands() {
    // (demand, cube side, ω_c, capacity W) for the million-point,
    // flash-crowd, diurnal-report and live-hotspot demands.
    let pinned = [
        (
            "point:grid=1024,demand=2000",
            7,
            Ratio::from_integer(6),
            182,
        ),
        (
            "clusters:grid=256,k=16,jobs=100000,seed=7",
            15,
            Ratio::new(29579, 2025),
            562,
        ),
        ("uniform:grid=120,jobs=28800,seed=7", 2, Ratio::ONE, 32),
        (
            "clusters:grid=64,k=8,jobs=50000,seed=7",
            13,
            Ratio::new(6134, 507),
            466,
        ),
    ];
    for (spec, side, omega, capacity) in pinned {
        let config: WorkloadConfig = spec.parse().expect("spec parses");
        let (bounds, demand) = config.generate().expect("workload fits its grid");
        let p = provision(&bounds, &demand, &OnlineConfig::default());
        assert_eq!(
            (p.side, p.omega, p.capacity),
            (side, omega, capacity),
            "{spec}"
        );
    }
}
