//! Property tests for the grid substrate: the snake path, pairings, cube
//! partitions, and ball counts on randomized boxes.
//!
//! Each property runs a fixed number of cases drawn from a seeded
//! [`Rng`], so every failure names a reproducible case.

use cmvrp_grid::{
    ball_size_clipped, ball_size_unbounded, pairing_in_cube, snake_order, Color, CubePartition,
    DemandMap, GridBounds, Point,
};
use cmvrp_util::Rng;

/// Cases per property.
const CASES: usize = 64;

/// A random box: corner in `-5..5`², sides 1 to 6.
fn random_box(rng: &mut Rng) -> GridBounds<2> {
    let (x, w) = (rng.gen_range(-5i64..5), rng.gen_range(1i64..7));
    let (y, h) = (rng.gen_range(-5i64..5), rng.gen_range(1i64..7));
    GridBounds::new([x, y], [x + w - 1, y + h - 1])
}

/// The snake order is a Hamiltonian path of every box.
#[test]
fn snake_is_hamiltonian_on_random_boxes() {
    let mut rng = Rng::seed_from_u64(0x5AE);
    for _ in 0..CASES {
        let b = random_box(&mut rng);
        let order = snake_order(&b);
        assert_eq!(order.len() as u64, b.volume(), "{b:?}");
        for w in order.windows(2) {
            assert_eq!(w[0].manhattan(w[1]), 1, "{b:?}");
        }
        let mut sorted = order.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len() as u64, b.volume(), "{b:?}");
    }
}

/// Pairings cover every vertex exactly once with adjacent bicolored
/// pairs and at most one singleton.
#[test]
fn pairing_invariants() {
    let mut rng = Rng::seed_from_u64(0xA1B);
    for _ in 0..CASES {
        let b = random_box(&mut rng);
        let pairing = pairing_in_cube(&b);
        assert_eq!(pairing.vertex_count() as u64, b.volume(), "{b:?}");
        assert_eq!(pairing.singleton_count() as u64, b.volume() % 2, "{b:?}");
        let mut seen = std::collections::HashSet::new();
        for (a, partner) in pairing.pairs() {
            assert!(seen.insert(*a), "{b:?}");
            if let Some(p) = partner {
                assert!(seen.insert(*p), "{b:?}");
                assert_eq!(a.manhattan(*p), 1, "{b:?}");
                assert_eq!(Color::of(*a), Color::Black, "{b:?}");
                assert_eq!(Color::of(*p), Color::White, "{b:?}");
            }
        }
        assert_eq!(seen.len() as u64, b.volume(), "{b:?}");
    }
}

/// Cube partitions tile the grid: every point in exactly one cube, and
/// cube bounds agree with cube_of.
#[test]
fn cube_partition_tiles() {
    let mut rng = Rng::seed_from_u64(0xC0BE);
    for _ in 0..CASES {
        let (b, side) = (random_box(&mut rng), rng.gen_range(1u64..5));
        let part = CubePartition::new(b, side);
        let mut covered = 0u64;
        for id in part.cubes() {
            let cube = part.cube_bounds(id);
            covered += cube.volume();
            for p in cube.iter() {
                assert_eq!(part.cube_of(p), id, "{b:?}, side {side}");
            }
            // Clipped cubes never exceed the nominal side.
            assert!(cube.extent(0) <= side && cube.extent(1) <= side);
        }
        assert_eq!(covered, b.volume(), "{b:?}, side {side}");
    }
}

/// Clipped ball counts: interior balls match the closed form; any ball
/// is bounded by it.
#[test]
fn ball_counts() {
    let mut rng = Rng::seed_from_u64(0xBA11);
    for _ in 0..CASES {
        let r = rng.gen_range(0u64..4);
        let (cx, cy) = (rng.gen_range(-3i64..3), rng.gen_range(-3i64..3));
        let b = GridBounds::new([-20, -20], [20, 20]);
        let center = Point::new([cx, cy]);
        let clipped = ball_size_clipped(&b, center, r) as u128;
        assert_eq!(clipped, ball_size_unbounded(2, r), "r={r} at {center:?}");
        // Near the corner the ball shrinks but never grows.
        let tight = GridBounds::new([-3, -3], [3, 3]);
        let small = ball_size_clipped(&tight, center, r) as u128;
        assert!(small <= clipped, "r={r} at {center:?}");
    }
}

/// Demand map algebra: totals track adds/sets under random operations.
#[test]
fn demand_bookkeeping() {
    let mut rng = Rng::seed_from_u64(0xDE3A);
    for _ in 0..CASES {
        let mut m: DemandMap<2> = DemandMap::new();
        let mut shadow = std::collections::HashMap::new();
        for _ in 0..rng.gen_range(1usize..40) {
            let p = Point::new([rng.gen_range(0i64..6), rng.gen_range(0i64..6)]);
            let (amount, is_set) = (rng.gen_range(0u64..20), rng.gen_bool(0.5));
            if is_set {
                m.set(p, amount);
                if amount == 0 {
                    shadow.remove(&p);
                } else {
                    shadow.insert(p, amount);
                }
            } else {
                m.add(p, amount);
                if amount > 0 {
                    *shadow.entry(p).or_insert(0) += amount;
                }
            }
        }
        assert_eq!(m.total(), shadow.values().sum::<u64>());
        assert_eq!(m.support_len(), shadow.len());
        for (p, want) in shadow {
            assert_eq!(m.get(p), want, "{p:?}");
        }
    }
}
