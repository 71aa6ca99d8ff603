//! Grid-specialized density solvers for `max_T Σ_{x∈T} d(x) / |N_r(T)|`.
//!
//! Two graph constructions are provided:
//!
//! * **Direct** — one coverage edge per (demand point, ball point) pair:
//!   `Θ(s · r^ℓ)` edges for `s` support points. Simple and fastest for small
//!   radii.
//! * **Layered** — the BFS gadget described in DESIGN.md §3.1: nodes
//!   `(cell, t)` for `t ∈ 0..=r` chained by `∞` edges so that selecting a
//!   demand point floods exactly its radius-`r` ball. `Θ(m · r · ℓ)` edges
//!   for `m` reachable cells, which wins for large radii.
//!
//! Both only build a [`DensityProblem`](crate::density): one Dinkelbach
//! loop solves either graph, and the exact results agree (this is
//! property-tested).

use crate::density::DensityProblem;
use cmvrp_grid::{dilate, DemandMap, GridBounds, Point};
use cmvrp_util::Ratio;
use std::collections::HashMap;

/// Which graph construction to use for the grid density solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DensityMethod {
    /// One `∞` edge per (point, covered cell) pair.
    #[default]
    Direct,
    /// The layered BFS gadget (`O(cells · r)` nodes).
    Layered,
}

/// Result of a grid density solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridDensityResult<const D: usize> {
    /// The optimum `max_T Σ_{x∈T} d(x) / |N_r(T) ∩ bounds|`.
    pub ratio: Ratio,
    /// The largest maximizing set `T` of demand points (the union of all
    /// densest sets), in point order.
    pub subset: Vec<Point<D>>,
}

/// Computes `max_{∅≠T⊆support(d)} Σ_{x∈T} d(x) / |N_r(T) ∩ bounds|` exactly.
///
/// Restricting `T` to the support of `d` is without loss of generality:
/// adding a zero-demand point to `T` can only enlarge `N_r(T)`.
///
/// Returns ratio 0 and an empty subset when the demand is identically zero.
///
/// # Examples
///
/// ```
/// use cmvrp_flow::{max_density_over_grid, grid_density::DensityMethod};
/// use cmvrp_grid::{DemandMap, GridBounds, pt2};
/// use cmvrp_util::Ratio;
///
/// let b = GridBounds::square(9);
/// let mut d = DemandMap::new();
/// d.add(pt2(4, 4), 10);
/// let r = max_density_over_grid(&b, &d, 1, DensityMethod::Direct);
/// assert_eq!(r.ratio, Ratio::new(10, 5)); // 10 demand over the 5-cell diamond
/// ```
pub fn max_density_over_grid<const D: usize>(
    bounds: &GridBounds<D>,
    demand: &DemandMap<D>,
    r: u64,
    method: DensityMethod,
) -> GridDensityResult<D> {
    let support: Vec<Point<D>> = demand.support().filter(|p| bounds.contains(*p)).collect();
    if support.is_empty() {
        return GridDensityResult {
            ratio: Ratio::ZERO,
            subset: Vec::new(),
        };
    }
    let weights: Vec<u64> = support.iter().map(|p| demand.get(*p)).collect();
    let problem = match method {
        DensityMethod::Direct => direct(bounds, &support, weights, r),
        DensityMethod::Layered => layered(bounds, &support, weights, r),
    };
    let result = problem.solve();
    GridDensityResult {
        ratio: result.ratio,
        subset: result.subset.into_iter().map(|i| support[i]).collect(),
    }
}

/// One `∞` arc per (point, ball cell) pair. Cells are numbered in the order
/// the balls first reach them, so the numbering is deterministic and cells
/// near each other get nearby numbers.
fn direct<const D: usize>(
    bounds: &GridBounds<D>,
    support: &[Point<D>],
    weights: Vec<u64>,
    r: u64,
) -> DensityProblem {
    let mut cell_index: HashMap<Point<D>, u32> = HashMap::new();
    let rows: Vec<Vec<u32>> = support
        .iter()
        .map(|p| {
            bounds
                .ball(*p, r)
                .map(|c| {
                    let next = cell_index.len() as u32;
                    *cell_index.entry(c).or_insert(next)
                })
                .collect()
        })
        .collect();
    DensityProblem::with_gadgets(weights, cell_index.len(), 0, rows)
}

/// The layered gadget: cell `c` at level `t ≥ 1` is a gadget node with `∞`
/// arcs to `c` and its neighbours at level `t − 1`; level 0 is the cells
/// themselves. Each point enters at its own cell on level `r`, so it reaches
/// exactly its radius-`r` ball.
fn layered<const D: usize>(
    bounds: &GridBounds<D>,
    support: &[Point<D>],
    weights: Vec<u64>,
    r: u64,
) -> DensityProblem {
    let mut cells: Vec<Point<D>> = dilate(bounds, support.iter().copied(), r).iter().collect();
    cells.sort_unstable();
    let cell_index: HashMap<Point<D>, usize> =
        cells.iter().enumerate().map(|(i, p)| (*p, i)).collect();
    let m = cells.len();
    let r = r as usize;
    // Target of cell `c` at level `t` (gadget `c·r + t − 1` above level 0).
    let node = |c: usize, t: usize| (if t == 0 { c } else { m + c * r + t - 1 }) as u32;
    let items = support.iter().map(|p| vec![node(cell_index[p], r)]);
    let gadgets = cells.iter().enumerate().flat_map(|(c, point)| {
        let neighbours: Vec<usize> = point
            .neighbors()
            .filter_map(|nb| cell_index.get(&nb).copied())
            .collect();
        (1..=r).map(move |t| {
            std::iter::once(node(c, t - 1))
                .chain(neighbours.iter().map(|&nb| node(nb, t - 1)))
                .collect::<Vec<u32>>()
        })
    });
    DensityProblem::with_gadgets(weights, m, m * r, items.chain(gadgets))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmvrp_grid::{dilated_size, pt2};

    fn demand_of(pts: &[(Point<2>, u64)]) -> DemandMap<2> {
        pts.iter().copied().collect()
    }

    #[test]
    fn single_point_density() {
        let b = GridBounds::square(11);
        let d = demand_of(&[(pt2(5, 5), 100)]);
        for r in 0..=3u64 {
            let want = Ratio::new(100, (2 * r * r + 2 * r + 1) as i128);
            for m in [DensityMethod::Direct, DensityMethod::Layered] {
                let got = max_density_over_grid(&b, &d, r, m);
                assert_eq!(got.ratio, want, "r={r} method={m:?}");
                assert_eq!(got.subset, vec![pt2(5, 5)]);
            }
        }
    }

    #[test]
    fn zero_demand() {
        let b = GridBounds::square(4);
        let d = DemandMap::new();
        let got = max_density_over_grid(&b, &d, 2, DensityMethod::Direct);
        assert_eq!(got.ratio, Ratio::ZERO);
        assert!(got.subset.is_empty());
    }

    #[test]
    fn picks_heavy_cluster_over_sparse_background() {
        let b = GridBounds::square(16);
        let mut d = DemandMap::new();
        // A tight heavy cluster...
        d.add(pt2(3, 3), 50);
        d.add(pt2(3, 4), 50);
        // ...and a lone faraway light point.
        d.add(pt2(12, 12), 1);
        let got = max_density_over_grid(&b, &d, 1, DensityMethod::Direct);
        // Cluster: 100 demand over |N_1({(3,3),(3,4)})| = 8 cells.
        assert_eq!(got.ratio, Ratio::new(100, 8));
        assert_eq!(got.subset, vec![pt2(3, 3), pt2(3, 4)]);
    }

    #[test]
    fn boundary_clipping_raises_density() {
        let b = GridBounds::square(9);
        // Same demand at corner vs. center: corner ball is smaller.
        let corner = demand_of(&[(pt2(0, 0), 10)]);
        let center = demand_of(&[(pt2(4, 4), 10)]);
        let rc = max_density_over_grid(&b, &corner, 2, DensityMethod::Direct);
        let rm = max_density_over_grid(&b, &center, 2, DensityMethod::Direct);
        assert!(rc.ratio > rm.ratio);
        assert_eq!(rc.ratio, Ratio::new(10, 6));
        assert_eq!(rm.ratio, Ratio::new(10, 13));
    }

    #[test]
    fn direct_and_layered_agree_on_random_maps() {
        let mut rng = cmvrp_util::Rng::seed_from_u64(7);
        let b = GridBounds::square(10);
        for trial in 0..10 {
            let mut d = DemandMap::new();
            for _ in 0..rng.gen_range(1..8) {
                d.add(
                    pt2(rng.gen_range(0..10), rng.gen_range(0..10)),
                    rng.gen_range(1..30),
                );
            }
            for r in [0u64, 1, 2, 3] {
                let a = max_density_over_grid(&b, &d, r, DensityMethod::Direct);
                let l = max_density_over_grid(&b, &d, r, DensityMethod::Layered);
                assert_eq!(a.ratio, l.ratio, "trial {trial} r={r}");
            }
        }
    }

    #[test]
    fn subset_attains_reported_ratio() {
        let b = GridBounds::square(12);
        let d = demand_of(&[(pt2(2, 2), 9), (pt2(2, 3), 4), (pt2(9, 9), 30)]);
        for r in [1u64, 2] {
            let got = max_density_over_grid(&b, &d, r, DensityMethod::Direct);
            let w: u64 = got.subset.iter().map(|p| d.get(*p)).sum();
            let size = dilated_size(&b, got.subset.iter().copied(), r);
            assert_eq!(got.ratio, Ratio::new(w as i128, size as i128), "r={r}");
        }
    }
}
