//! The demands the window-sum oracle (`tests/window_sums.rs`) checks.
//!
//! The table-size gate in `cmvrp-core`'s `cubes` unit tests includes this
//! file as well, so the oracle and the gate run over the same inputs.

use cmvrp_grid::{DemandMap, GridBounds, Point};
use cmvrp_util::Rng;

/// One oracle input: a demand (possibly reaching outside) over bounds.
pub struct Case<const D: usize> {
    /// What the demand exercises, for failure messages.
    pub name: String,
    /// The grid.
    pub bounds: GridBounds<D>,
    /// The demand, in point order.
    pub demand: DemandMap<D>,
}

/// Inputs on lines, one of them with a negative minimum and one a single
/// cell.
pub fn cases_1d() -> Vec<Case<1>> {
    let bounds = [
        GridBounds::new([0], [9]),
        GridBounds::new([-3], [4]),
        GridBounds::new([5], [5]),
    ];
    cases(&bounds, 11)
}

/// Inputs on planes, one of them with a negative minimum and one a single
/// row.
pub fn cases_2d() -> Vec<Case<2>> {
    let bounds = [
        GridBounds::square(7),
        GridBounds::new([-2, 1], [4, 6]),
        GridBounds::new([0, -4], [0, 3]),
    ];
    cases(&bounds, 17)
}

/// Inputs in three dimensions, one of them with negative minima.
pub fn cases_3d() -> Vec<Case<3>> {
    let bounds = [GridBounds::cube(4), GridBounds::new([-1, 0, -3], [2, 3, 1])];
    cases(&bounds, 23)
}

/// Every input family on every bounds, drawn from `seed`: random sparse
/// demand reaching up to two cells outside, demand on the lower and upper
/// faces, demand wholly outside, one heavy point, full support, and none.
fn cases<const D: usize>(bounds: &[GridBounds<D>], seed: u64) -> Vec<Case<D>> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut out = Vec::new();
    for &b in bounds {
        let (min, max) = (b.min(), b.max());
        let mut push = |name: &str, demand: DemandMap<D>| {
            out.push(Case {
                name: format!("{name} on {min:?}..={max:?}"),
                bounds: b,
                demand,
            });
        };
        for trial in 0..4 {
            let mut d = DemandMap::new();
            for _ in 0..rng.gen_range(1..=8) {
                let p = Point::new(std::array::from_fn(|i| {
                    rng.gen_range(min[i] - 2..=max[i] + 2)
                }));
                d.add(p, rng.gen_range(1..=30u64));
            }
            push(&format!("sparse #{trial}"), d);
        }

        let mut d = DemandMap::new();
        d.add(Point::new(min), rng.gen_range(1..=30u64));
        d.add(Point::new(max), rng.gen_range(1..=30u64));
        for axis in 0..D {
            for face in [min[axis], max[axis]] {
                let mut c: [i64; D] = std::array::from_fn(|i| rng.gen_range(min[i]..=max[i]));
                c[axis] = face;
                d.add(Point::new(c), rng.gen_range(1..=30u64));
            }
        }
        push("faces", d);

        let mut d = DemandMap::new();
        for axis in 0..D {
            let mut c = min;
            c[axis] = min[axis] - 1;
            d.add(Point::new(c), rng.gen_range(1..=30u64));
            let mut c = max;
            c[axis] = max[axis] + 1;
            d.add(Point::new(c), rng.gen_range(1..=30u64));
        }
        push("outside", d);

        let mut d = DemandMap::new();
        let p = Point::new(std::array::from_fn(|i| rng.gen_range(min[i]..=max[i])));
        d.add(p, rng.gen_range(50..=2000u64));
        push("one point", d);

        let mut d = DemandMap::new();
        for p in b.iter() {
            d.add(p, rng.gen_range(1..=9u64));
        }
        push("full support", d);

        push("empty", DemandMap::new());
    }
    out
}
