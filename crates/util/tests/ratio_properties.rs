//! Property tests: `Ratio` behaves like the rational field (on the value
//! ranges the workspace uses).
//!
//! Each property runs a fixed number of cases drawn from a seeded
//! [`Rng`], so every failure names a reproducible case.

use cmvrp_util::{Ratio, Rng};

/// Cases per property.
const CASES: usize = 256;

/// An integer in `lo..hi`.
fn int(rng: &mut Rng, lo: i64, hi: i64) -> i128 {
    i128::from(rng.gen_range(lo..hi))
}

/// A rational with small components, which keep products inside `i128`
/// across repeated ops.
fn ratio(rng: &mut Rng) -> Ratio {
    Ratio::new(int(rng, -10_000, 10_000), int(rng, 1, 10_000))
}

/// Runs `property` on `CASES` triples of rationals from a seeded stream.
fn for_triples(seed: u64, property: impl Fn(Ratio, Ratio, Ratio)) {
    let mut rng = Rng::seed_from_u64(seed);
    for _ in 0..CASES {
        property(ratio(&mut rng), ratio(&mut rng), ratio(&mut rng));
    }
}

#[test]
fn addition_commutes_and_associates() {
    for_triples(0xADD, |a, b, c| {
        assert_eq!(a + b, b + a);
        assert_eq!((a + b) + c, a + (b + c));
        assert_eq!(a + Ratio::ZERO, a);
    });
}

#[test]
fn multiplication_commutes_and_distributes() {
    for_triples(0x3C1, |a, b, c| {
        assert_eq!(a * b, b * a);
        assert_eq!(a * (b + c), a * b + a * c);
        assert_eq!(a * Ratio::ONE, a);
    });
}

#[test]
fn subtraction_and_negation() {
    for_triples(0x5B, |a, b, _| {
        assert_eq!(a - b, a + (-b));
        assert_eq!(a - a, Ratio::ZERO);
        assert_eq!(-(-a), a);
    });
}

#[test]
fn division_inverts_multiplication() {
    for_triples(0xD1, |a, b, _| {
        if b.is_zero() {
            return;
        }
        assert_eq!((a / b) * b, a);
        assert_eq!(b * b.recip(), Ratio::ONE);
    });
}

#[test]
fn ordering_is_total_and_compatible() {
    for_triples(0x0D, |a, b, c| {
        // Trichotomy.
        let cases = [a < b, a == b, a > b];
        assert_eq!(cases.iter().filter(|&&x| x).count(), 1);
        // Translation invariance.
        assert_eq!(a < b, a + c < b + c);
        // Scaling by a positive rational preserves order.
        if c.is_positive() {
            assert_eq!(a < b, a * c < b * c);
        }
    });
}

#[test]
fn floor_ceil_bracket() {
    for_triples(0xF1, |a, _, _| {
        let fl = Ratio::from_integer(a.floor());
        let ce = Ratio::from_integer(a.ceil());
        assert!(fl <= a);
        assert!(a <= ce);
        assert!(ce - fl <= Ratio::ONE);
        assert_eq!(fl == ce, a.is_integer());
    });
}

#[test]
fn reduction_is_canonical() {
    let mut rng = Rng::seed_from_u64(0xCA);
    for _ in 0..CASES {
        let (n, d, k) = (
            int(&mut rng, -10_000, 10_000),
            int(&mut rng, 1, 10_000),
            int(&mut rng, 1, 50),
        );
        // Scaling numerator and denominator leaves the value unchanged.
        assert_eq!(Ratio::new(n, d), Ratio::new(n * k, d * k), "{n}/{d} by {k}");
    }
}

#[test]
fn to_f64_is_monotone() {
    for_triples(0xF64, |a, b, _| {
        if a < b {
            assert!(a.to_f64() <= b.to_f64());
        }
    });
}

#[test]
fn min_max_abs() {
    for_triples(0xAB5, |a, b, _| {
        assert_eq!(a.min(b) + a.max(b), a + b);
        assert!(a.abs() >= a);
        assert!(a.abs() >= -a);
    });
}
