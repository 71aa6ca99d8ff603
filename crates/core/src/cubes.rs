//! Cube characterizations of `Woff` (Corollaries 2.2.6 and 2.2.7).
//!
//! The thesis observes that restricting the subsets `T` to axis-aligned
//! `ℓ`-cubes loses only a constant factor, and that this restriction is
//! "key to being able to provide an algorithm". This module computes:
//!
//! * [`max_window_sum`] — `max_{T ∈ Γ_s} Σ_{x∈T} d(x)` over all side-`s`
//!   sliding cubes, via `D`-dimensional prefix sums over the demand's
//!   support. With `n` support points and `kᵢ ≤ n` distinct support
//!   coordinates on axis `i`, the [`PrefixSums`] table has `Π(kᵢ+1)` cells
//!   and takes `O(D·n·log n + D·Π(kᵢ+1))` to build; one side then costs
//!   `O(2^D·Π kᵢ)`. Neither ever exceeds the grid's volume, and a demand
//!   on one vertex of a 1024² grid builds a 4-cell table.
//! * [`omega_c`] — the Corollary 2.2.7 quantity
//!   `ω_c = min{ ω : ω·(3⌈ω⌉)^ℓ ≥ max_{T∈Γ_⌈ω⌉} Σ_{x∈T} d(x) }`,
//!   satisfying `ω_c ≤ Woff ≤ (2·3^ℓ+ℓ)·ω_c`.
//! * [`max_cube_omega_t`] — `max_{T∈Γ_s, s≤s_max} ω_T` for cross-checking
//!   Corollary 2.2.6 in tests.

use crate::omega::solve_omega_t;
use cmvrp_grid::{DemandMap, GridBounds, Point};
use cmvrp_util::Ratio;

// The window-sum oracle's inputs, so the table-size gate below covers
// every demand the root `tests/window_sums.rs` checks.
#[cfg(test)]
#[path = "../../../tests/window_sums/inputs.rs"]
mod window_inputs;

/// `D`-dimensional prefix-sum table over the support of a demand map,
/// supporting box-sum queries and scans of every side-`s` window.
///
/// On each axis the table keeps the sorted, distinct, in-bounds support
/// coordinates, and stores prefix sums over the grid they span: cell `c`
/// holds the demand at support points whose coordinate on every axis `i`
/// is below the `cᵢ`-th kept coordinate. Build it once and query it for
/// every side a scan needs.
#[derive(Debug, Clone)]
pub struct PrefixSums<const D: usize> {
    bounds: GridBounds<D>,
    /// Per axis: the sorted, distinct coordinates of in-bounds support.
    coords: [Vec<i64>; D],
    /// Row-major strides of `data`; the last axis is contiguous.
    strides: [usize; D],
    data: Vec<u64>,
}

impl<const D: usize> PrefixSums<D> {
    /// Builds the table from a demand map in `O(D·n·log n + D·Π(kᵢ+1))`
    /// time for `n` support points. Demand outside `bounds` is ignored.
    pub fn new(bounds: GridBounds<D>, demand: &DemandMap<D>) -> Self {
        // Each axis' distinct coordinates, read straight off the support.
        // Point order sorts axis 0, so skipping repeats of the last value
        // dedups it on the fly. A list is sorted and deduped whenever it
        // doubles past its last deduped length, so it never holds more than
        // twice its distinct coordinates plus one instead of one entry per
        // support point.
        let mut coords: [Vec<i64>; D] = std::array::from_fn(|_| Vec::new());
        let mut deduped = [0usize; D];
        for (p, _) in demand.iter().filter(|&(p, _)| bounds.contains(p)) {
            for ((axis, deduped), c) in coords.iter_mut().zip(&mut deduped).zip(p.coords()) {
                if axis.last() != Some(&c) {
                    axis.push(c);
                }
                if axis.len() > 2 * *deduped {
                    axis.sort_unstable();
                    axis.dedup();
                    *deduped = axis.len();
                }
            }
        }
        for axis in &mut coords {
            axis.sort_unstable();
            axis.dedup();
        }
        let mut strides = [1usize; D];
        for i in (0..D.saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * (coords[i + 1].len() + 1);
        }
        let size = coords.first().map_or(1, |c| strides[0] * (c.len() + 1));
        let mut data = vec![0u64; size];
        // Scatter raw demand at offset +1 on every axis.
        for (p, amount) in demand.iter().filter(|&(p, _)| bounds.contains(p)) {
            let mut idx = 0;
            for ((axis, c), stride) in coords.iter().zip(p.coords()).zip(strides) {
                let rank = axis
                    .binary_search(&c)
                    .expect("every in-bounds support coordinate was kept");
                idx += (rank + 1) * stride;
            }
            data[idx] += amount;
        }
        // Accumulate along each axis in turn: inside every block of
        // `(kᵢ+1)·strideᵢ` cells, each row adds the already summed row
        // `strideᵢ` cells before it.
        for (axis, stride) in coords.iter().zip(strides) {
            let block = (axis.len() + 1) * stride;
            for start in (0..size).step_by(block) {
                for idx in start + stride..start + block {
                    data[idx] += data[idx - stride];
                }
            }
        }
        PrefixSums {
            bounds,
            coords,
            strides,
            data,
        }
    }

    /// Total in-bounds demand.
    fn total(&self) -> u64 {
        *self.data.last().expect("the table has at least one cell")
    }

    /// The table's cell count, `Π(kᵢ+1)`.
    #[cfg(test)]
    fn cells(&self) -> usize {
        self.data.len()
    }

    /// Sum of demand over the box with inclusive corners `lo`, `hi`
    /// (in grid coordinates, clipped to the bounds).
    pub fn box_sum(&self, lo: Point<D>, hi: Point<D>) -> u64 {
        let min = self.bounds.min();
        let max = self.bounds.max();
        let (lc, hc) = (lo.coords(), hi.coords());
        let mut lo_idx = [0usize; D];
        let mut hi_idx = [0usize; D];
        for i in 0..D {
            let l = lc[i].max(min[i]);
            let h = hc[i].min(max[i]);
            if l > h {
                return 0;
            }
            // Exclusive lower and inclusive upper rank among the kept
            // coordinates, both as table offsets.
            lo_idx[i] = self.coords[i].partition_point(|&c| c < l) * self.strides[i];
            hi_idx[i] = self.coords[i].partition_point(|&c| c <= h) * self.strides[i];
        }
        // Inclusion-exclusion over the 2^D corners. Partial sums may wrap;
        // the true total lies in `0..=total`, so the wrapped sum is exact.
        let mut total = 0u64;
        for mask in 0..(1usize << D) {
            let mut corner = 0;
            let mut negative = false;
            for i in 0..D {
                if mask & (1 << i) != 0 {
                    corner += lo_idx[i];
                    negative = !negative;
                } else {
                    corner += hi_idx[i];
                }
            }
            let v = self.data[corner];
            total = if negative {
                total.wrapping_sub(v)
            } else {
                total.wrapping_add(v)
            };
        }
        total
    }

    /// `max_{T∈Γ_s} Σ_{x∈T} d(x)` over this table; see [`max_window_sum`]
    /// for the windows and why scanning only support-anchored ones is
    /// exact.
    ///
    /// # Panics
    ///
    /// Panics if `s == 0`.
    pub fn max_window_sum(&self, s: u64) -> u64 {
        assert!(s > 0, "cube side must be positive");
        if self.total() == 0 {
            return 0;
        }
        let ranges: [Vec<(usize, usize)>; D] = std::array::from_fn(|i| self.window_ranges(i, s));
        let (inner, outer) = ranges.split_last().expect("grids have at least one axis");
        // One odometer step fixes a window range on every outer axis and
        // thereby the 2^(D-1) corner offsets (with their inclusion-exclusion
        // signs); the inner axis then slides along the contiguous last axis.
        let mut corners = vec![(0usize, false); 1 << outer.len()];
        let mut pos = vec![0usize; outer.len()];
        let mut best = 0u64;
        loop {
            for (mask, corner) in corners.iter_mut().enumerate() {
                *corner = (0, false);
                for (i, (axis, &at)) in outer.iter().zip(&pos).enumerate() {
                    let (lo, hi) = axis[at];
                    if mask & (1 << i) != 0 {
                        corner.0 += lo;
                        corner.1 = !corner.1;
                    } else {
                        corner.0 += hi;
                    }
                }
            }
            for &(lo, hi) in inner {
                let mut sum = 0u64;
                for &(base, negative) in &corners {
                    let v = self.data[base + hi].wrapping_sub(self.data[base + lo]);
                    sum = if negative {
                        sum.wrapping_sub(v)
                    } else {
                        sum.wrapping_add(v)
                    };
                }
                best = best.max(sum);
            }
            // Advance the odometer over the outer axes, last fastest.
            let mut axis = outer.len();
            loop {
                if axis == 0 {
                    return best;
                }
                axis -= 1;
                pos[axis] += 1;
                if pos[axis] < outer[axis].len() {
                    break;
                }
                pos[axis] = 0;
            }
        }
    }

    /// The compressed `[lo, hi)` table offsets, on `axis`, of every
    /// candidate side-`s` window: one starting at each kept coordinate, up
    /// to the first at or past `max − (s−1)`. Both ends only move up, so one
    /// two-pointer sweep finds them all.
    ///
    /// The last candidate stands for the window clamped to the last legal
    /// start: no kept coordinate lies between the two starts and both
    /// windows reach the upper bound, so they cover the same kept
    /// coordinates. When `s` exceeds the extent, that is the first one.
    fn window_ranges(&self, axis: usize, s: u64) -> Vec<(usize, usize)> {
        let coords = &self.coords[axis];
        let stride = self.strides[axis];
        let span = i64::try_from(s - 1).unwrap_or(i64::MAX);
        let last_start = self.bounds.max()[axis].saturating_sub(span);
        let mut ranges = Vec::with_capacity(coords.len());
        let mut hi = 0;
        for (lo, &c) in coords.iter().enumerate() {
            let end = c.saturating_add(span);
            while hi < coords.len() && coords[hi] <= end {
                hi += 1;
            }
            ranges.push((lo * stride, hi * stride));
            if c >= last_start {
                break;
            }
        }
        ranges
    }

    /// The Corollary 2.2.7 quantity `ω_c` of this table's demand; see
    /// [`omega_c`].
    pub fn omega_c(&self) -> Ratio {
        if self.total() == 0 {
            return Ratio::ZERO;
        }
        let l = D as u32;
        let mut s: u64 = 1;
        loop {
            let m = self.max_window_sum(s) as i128;
            // On the piece ⌈ω⌉ = s (i.e. ω ∈ (s-1, s]), the equation reads
            // ω·(3s)^ℓ = M(s): candidate ω = M(s) / (3s)^ℓ.
            let denom = (3 * s as i128).pow(l);
            let candidate = Ratio::new(m, denom);
            if candidate <= Ratio::from_integer(s as i128 - 1) {
                // The inequality already holds throughout this piece; the
                // infimum is the piece boundary.
                return Ratio::from_integer(s as i128 - 1);
            }
            if candidate <= Ratio::from_integer(s as i128) {
                return candidate;
            }
            s += 1;
        }
    }
}

/// `max_{T∈Γ_s} Σ_{x∈T} d(x)`: the largest demand inside any axis-aligned
/// side-`s` cube (sliding positions; cubes are clipped at the boundary by
/// taking every start position such that the cube intersects the grid —
/// equivalently every fully-contained window, since demand outside the grid
/// is zero, plus clamped windows when `s` exceeds an extent).
///
/// Only windows whose start on each axis is a support coordinate, clamped
/// to the last legal start, are summed. That is exact:
///
/// * take any legal side-`s` window `W` and let `P` be the support inside
///   it; if `P` is empty, `W` sums to 0;
/// * otherwise, on each axis, move `W`'s lower edge up to the smaller of
///   `P`'s lowest coordinate and the last legal start. The new window is
///   still legal, and it still contains `P` because its upper edge only
///   moved up, so its sum is at least `W`'s;
/// * the maximum over the candidate starts therefore equals the maximum
///   over all starts. When `s` ≥ the extent, clamping leaves one start.
///
/// Builds a [`PrefixSums`] table; callers scanning several sides build
/// one and call [`PrefixSums::max_window_sum`] on it.
///
/// # Panics
///
/// Panics if `s == 0`.
///
/// # Examples
///
/// ```
/// use cmvrp_core::max_window_sum;
/// use cmvrp_grid::{DemandMap, GridBounds, pt2};
///
/// let b = GridBounds::square(8);
/// let mut d = DemandMap::new();
/// d.add(pt2(0, 0), 5);
/// d.add(pt2(1, 1), 7);
/// d.add(pt2(7, 7), 100);
/// assert_eq!(max_window_sum(&b, &d, 1), 100);
/// assert_eq!(max_window_sum(&b, &d, 2), 100);
/// assert_eq!(max_window_sum(&b, &d, 7), 107); // the 7-window (1,1)..(7,7)
/// assert_eq!(max_window_sum(&b, &d, 8), 112);
/// ```
pub fn max_window_sum<const D: usize>(
    bounds: &GridBounds<D>,
    demand: &DemandMap<D>,
    s: u64,
) -> u64 {
    PrefixSums::new(*bounds, demand).max_window_sum(s)
}

/// The Corollary 2.2.7 quantity `ω_c`: the infimum `ω` with
/// `ω·(3⌈ω⌉)^ℓ ≥ max_{T∈Γ_⌈ω⌉} Σ_{x∈T} d(x)`.
///
/// Satisfies `ω_c ≤ Woff ≤ (2·3^ℓ+ℓ)·ω_c` and `ω_c ≤ ω*`. Builds one
/// support-compressed [`PrefixSums`] table and scans sides upward from 1
/// over it, at `O(2^ℓ·Π kᵢ)` per side for `kᵢ` distinct support
/// coordinates on axis `i`; at most `O((Σd)^{1/(ℓ+1)})` sides are
/// examined.
///
/// # Examples
///
/// ```
/// use cmvrp_core::omega_c;
/// use cmvrp_grid::{DemandMap, GridBounds, pt2};
/// use cmvrp_util::Ratio;
///
/// let b = GridBounds::square(9);
/// let mut d = DemandMap::new();
/// d.add(pt2(4, 4), 9);
/// // s=1: ω·9 = 9 → ω = 1 ≤ 1 → ω_c = 1.
/// assert_eq!(omega_c(&b, &d), Ratio::ONE);
/// ```
pub fn omega_c<const D: usize>(bounds: &GridBounds<D>, demand: &DemandMap<D>) -> Ratio {
    PrefixSums::new(*bounds, demand).omega_c()
}

/// `max ω_T` over all axis-aligned cubes with side `1..=s_max` — the
/// Corollary 2.2.6 quantity restricted to bounded sides, used as a
/// cross-check in tests and experiments. Exponential care is not needed:
/// this enumerates `O(volume · s_max)` cubes.
pub fn max_cube_omega_t<const D: usize>(
    bounds: &GridBounds<D>,
    demand: &DemandMap<D>,
    s_max: u64,
) -> Ratio {
    let mut best = Ratio::ZERO;
    for s in 1..=s_max {
        let min = bounds.min();
        let max = bounds.max();
        let mut start_max = [0i64; D];
        for i in 0..D {
            start_max[i] = (max[i] - s as i64 + 1).max(min[i]);
        }
        for lo in GridBounds::new(min, start_max).iter() {
            let mut hc = lo.coords();
            for h in hc.iter_mut() {
                *h += s as i64 - 1;
            }
            let cube = GridBounds::new(lo.coords(), {
                let mut clipped = hc;
                for i in 0..D {
                    clipped[i] = clipped[i].min(max[i]);
                }
                clipped
            });
            let t: Vec<Point<D>> = cube.iter().filter(|p| demand.get(*p) > 0).collect();
            if t.is_empty() {
                continue;
            }
            best = best.max(solve_omega_t(bounds, demand, &t));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::omega::omega_star;
    use cmvrp_grid::{pt1, pt2};

    fn demand_of(pts: &[(Point<2>, u64)]) -> DemandMap<2> {
        pts.iter().copied().collect()
    }

    #[test]
    fn prefix_sums_match_bruteforce() {
        let mut rng = cmvrp_util::Rng::seed_from_u64(3);
        let b = GridBounds::new([-2, 1], [4, 6]);
        let mut d = DemandMap::new();
        for _ in 0..12 {
            d.add(
                pt2(rng.gen_range(-2..=4), rng.gen_range(1..=6)),
                rng.gen_range(1..10),
            );
        }
        let prefix = PrefixSums::new(b, &d);
        for lo in b.iter() {
            for hi in b.iter() {
                let want: u64 = GridBounds::new(
                    [lo[0].min(hi[0]), lo[1].min(hi[1])],
                    [lo[0].max(hi[0]), lo[1].max(hi[1])],
                )
                .iter()
                .map(|p| d.get(p))
                .sum();
                if lo[0] <= hi[0] && lo[1] <= hi[1] {
                    assert_eq!(prefix.box_sum(lo, hi), want);
                }
            }
        }
    }

    #[test]
    fn box_sum_clips() {
        let b = GridBounds::square(4);
        let d = demand_of(&[(pt2(0, 0), 3), (pt2(3, 3), 5)]);
        let prefix = PrefixSums::new(b, &d);
        assert_eq!(prefix.box_sum(pt2(-10, -10), pt2(10, 10)), 8);
        assert_eq!(prefix.box_sum(pt2(5, 5), pt2(9, 9)), 0);
    }

    #[test]
    fn window_sum_one_dimensional() {
        let b: GridBounds<1> = GridBounds::new([0], [9]);
        let mut d: DemandMap<1> = DemandMap::new();
        d.add(pt1(0), 4);
        d.add(pt1(1), 4);
        d.add(pt1(9), 7);
        assert_eq!(max_window_sum(&b, &d, 1), 7);
        assert_eq!(max_window_sum(&b, &d, 2), 8);
        assert_eq!(max_window_sum(&b, &d, 10), 15);
        assert_eq!(max_window_sum(&b, &d, 100), 15);
    }

    #[test]
    fn table_cells_track_the_support() {
        // The million-point demand: one vertex of a 1024² grid, where a
        // grid-sized table would have 1025² = 1,050,625 cells.
        let b = GridBounds::square(1024);
        let d = cmvrp_workloads::spatial::point(&b, 2000);
        assert_eq!(PrefixSums::new(b, &d).cells(), 4);

        fn within_dense<const D: usize>(cases: &[window_inputs::Case<D>]) {
            for case in cases {
                let b = case.bounds;
                let dense: u64 = (0..D).map(|i| b.extent(i) + 1).product();
                let cells = PrefixSums::new(b, &case.demand).cells();
                assert!(cells as u64 <= dense, "{}: {cells} > {dense}", case.name);
            }
        }
        within_dense(&window_inputs::cases_1d());
        within_dense(&window_inputs::cases_2d());
        within_dense(&window_inputs::cases_3d());
    }

    #[test]
    fn omega_c_zero_demand() {
        let b = GridBounds::square(4);
        assert_eq!(omega_c(&b, &DemandMap::new()), Ratio::ZERO);
    }

    #[test]
    fn omega_c_single_light_point() {
        let b = GridBounds::square(9);
        // d = 1: s = 1 piece gives candidate 1/9 ≤ 0? No: 1/9 > 0 and
        // 1/9 ≤ 1 → ω_c = 1/9.
        let d = demand_of(&[(pt2(4, 4), 1)]);
        assert_eq!(omega_c(&b, &d), Ratio::new(1, 9));
    }

    #[test]
    fn omega_c_growth_across_pieces() {
        let b = GridBounds::square(33);
        // Heavy single point forces larger cube sides.
        let d = demand_of(&[(pt2(16, 16), 1000)]);
        let w = omega_c(&b, &d);
        // s must satisfy ω(3s)^2 = 1000 with ω ∈ (s-1, s]: s=3 → 1000/81 ≈
        // 12.3 > 3; s=5 → 1000/225 ≈ 4.4 ≤ 5 and > 4 → ω_c = 1000/225 = 40/9.
        assert_eq!(w, Ratio::new(40, 9));
    }

    #[test]
    fn omega_c_is_lower_bound_for_omega_star() {
        // Corollary 2.2.7's proof: ω_c ≤ max_T ω_T = ω*.
        let mut rng = cmvrp_util::Rng::seed_from_u64(5);
        let b = GridBounds::square(11);
        for trial in 0..6 {
            let mut d = DemandMap::new();
            for _ in 0..rng.gen_range(1..7) {
                d.add(
                    pt2(rng.gen_range(0..11), rng.gen_range(0..11)),
                    rng.gen_range(1..60),
                );
            }
            let wc = omega_c(&b, &d);
            let ws = omega_star(&b, &d).value;
            assert!(wc <= ws, "trial {trial}: ω_c={wc} > ω*={ws}");
        }
    }

    #[test]
    fn cube_omega_t_below_omega_star() {
        // Corollary 2.2.6: max over cubes ≤ max over all subsets.
        let b = GridBounds::square(9);
        let d = demand_of(&[(pt2(4, 4), 25), (pt2(4, 5), 25), (pt2(0, 0), 9)]);
        let cube_max = max_cube_omega_t(&b, &d, 4);
        let star = omega_star(&b, &d).value;
        assert!(cube_max <= star);
        assert!(cube_max.is_positive());
    }

    #[test]
    fn three_dimensional_window() {
        let b: GridBounds<3> = GridBounds::cube(4);
        let mut d: DemandMap<3> = DemandMap::new();
        d.add(cmvrp_grid::pt3(0, 0, 0), 2);
        d.add(cmvrp_grid::pt3(1, 1, 1), 3);
        d.add(cmvrp_grid::pt3(3, 3, 3), 10);
        assert_eq!(max_window_sum(&b, &d, 1), 10);
        assert_eq!(max_window_sum(&b, &d, 2), 10);
        assert_eq!(max_window_sum(&b, &d, 4), 15);
    }
}
