//! The constructive off-line upper bound (Lemma 2.2.5) and an independent
//! plan verifier.
//!
//! Lemma 2.2.5 proves `Woff ≤ (2·3^ℓ+ℓ)·ω*` by exhibiting a strategy:
//! partition the grid into `⌈ω⌉`-cubes; every vehicle first serves up to
//! `3^ℓ·ω` demand *at its own vertex*, then walks to at most one position in
//! its cube and serves a residual chunk of at most `3^ℓ·ω` there. Because no
//! cube holds more than `ω·(3⌈ω⌉)^ℓ` demand (Corollary 2.2.7 with
//! `ω = ω_c`), a counting argument guarantees the cube's own vehicles
//! suffice.
//!
//! [`plan_offline`] constructs that assignment explicitly (with a documented
//! fallback for boundary-clipped cubes, which the infinite-grid argument
//! does not face: vehicles there may take several missions);
//! [`verify_plan`] re-derives every vehicle's energy — travel plus service —
//! and checks all demand is covered, without trusting the constructor.

use crate::cubes::PrefixSums;
use cmvrp_grid::{CubePartition, DemandMap, GridBounds, Point};
use cmvrp_util::Ratio;
use std::collections::BTreeMap;

/// One service mission: walk to `dest` and serve `amount` jobs there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mission<const D: usize> {
    /// Where to serve.
    pub dest: Point<D>,
    /// How many jobs to serve there.
    pub amount: u64,
}

/// The complete itinerary of one vehicle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VehicleAssignment<const D: usize> {
    /// The vehicle's depot (its starting vertex).
    pub home: Point<D>,
    /// Jobs served at the home vertex before departing.
    pub serve_at_home: u64,
    /// Missions executed in order, starting from `home`.
    pub missions: Vec<Mission<D>>,
}

impl<const D: usize> VehicleAssignment<D> {
    /// Total travel energy: the walk `home → missions[0].dest → …` in
    /// Manhattan distance.
    pub fn travel(&self) -> u64 {
        let mut at = self.home;
        let mut total = 0u64;
        for m in &self.missions {
            total += at.manhattan(m.dest);
            at = m.dest;
        }
        total
    }

    /// Total service energy (jobs served anywhere).
    pub fn service(&self) -> u64 {
        self.serve_at_home + self.missions.iter().map(|m| m.amount).sum::<u64>()
    }

    /// Total energy drawn from the battery: travel + service.
    pub fn energy(&self) -> u64 {
        self.travel() + self.service()
    }
}

/// An off-line serving plan: one assignment per participating vehicle.
///
/// Vehicles that do nothing are omitted (their energy use is zero).
#[derive(Debug, Clone, Default)]
pub struct OfflinePlan<const D: usize> {
    assignments: Vec<VehicleAssignment<D>>,
}

impl<const D: usize> OfflinePlan<D> {
    /// Builds a plan from explicit assignments (used by the §2.1 strategy
    /// constructors; run [`verify_plan`] on the result).
    pub fn from_assignments(assignments: Vec<VehicleAssignment<D>>) -> Self {
        OfflinePlan { assignments }
    }

    /// Appends one assignment.
    pub fn push(&mut self, a: VehicleAssignment<D>) {
        self.assignments.push(a);
    }

    /// The per-vehicle assignments.
    pub fn assignments(&self) -> &[VehicleAssignment<D>] {
        &self.assignments
    }

    /// Number of participating vehicles.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Whether the plan involves no vehicles.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// The largest per-vehicle energy — the empirical capacity `W` this plan
    /// certifies as sufficient.
    pub fn max_energy(&self) -> u64 {
        self.assignments
            .iter()
            .map(|a| a.energy())
            .max()
            .unwrap_or(0)
    }

    /// Total energy spent by the whole fleet.
    pub fn total_energy(&self) -> u64 {
        self.assignments.iter().map(|a| a.energy()).sum()
    }
}

/// Why [`plan_offline_with`] can refuse to build a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The provided `ω` is not positive while demand exists.
    OmegaNotPositive,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::OmegaNotPositive => {
                write!(f, "omega must be positive when demand exists")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// Builds the Lemma 2.2.5 plan at the cheapest sound cube side: the first
/// `s` with `max_{Γ_s} Σd ≤ s·(3s)^ℓ` (the `ω_c` piece of Corollary 2.2.7),
/// with per-vehicle chunk budget `⌈M(s)/s^ℓ⌉` so the counting argument goes
/// through even when `ω_c` is a non-attained infimum.
///
/// The resulting [`OfflinePlan::max_energy`] is at most
/// `(2·3^ℓ+ℓ)·ω_c + O(1)` on interior instances.
///
/// # Errors
///
/// Never fails for a consistent instance; the `Result` mirrors
/// [`plan_offline_with`].
pub fn plan_offline<const D: usize>(
    bounds: &GridBounds<D>,
    demand: &DemandMap<D>,
) -> Result<OfflinePlan<D>, PlanError> {
    if demand.total() == 0 {
        return Ok(OfflinePlan::default());
    }
    let prefix = PrefixSums::new(*bounds, demand);
    let side = prefix.lemma_side();
    let m = prefix.max_window_sum(side);
    let vehicles_per_cube = (side as u128).pow(D as u32);
    let chunk_cap = (m as u128).div_ceil(vehicles_per_cube).max(1) as u64;
    Ok(build_plan(bounds, demand, side, chunk_cap))
}

/// The cube side [`plan_offline`] partitions with: the smallest `s` such
/// that no side-`s` cube holds more than `s·(3s)^ℓ` demand (the `ω_c` piece
/// of Corollary 2.2.7). Returns 1 for zero demand.
pub fn lemma_side<const D: usize>(bounds: &GridBounds<D>, demand: &DemandMap<D>) -> u64 {
    PrefixSums::new(*bounds, demand).lemma_side()
}

impl<const D: usize> PrefixSums<D> {
    /// [`lemma_side`] of this table's demand, scanning every side over the
    /// one table.
    pub fn lemma_side(&self) -> u64 {
        let l = D as u32;
        let mut s: u64 = 1;
        loop {
            let m = self.max_window_sum(s);
            if (m as u128) <= s as u128 * (3 * s as u128).pow(l) {
                return s;
            }
            s += 1;
        }
    }
}

/// Builds the Lemma 2.2.5 plan for a caller-chosen `ω` (any value with
/// `ω ≥ ω_c` is sound; larger values yield larger cubes and budgets).
///
/// The construction is greedy and per-cube:
///
/// 1. every vehicle serves `min(d(home), ⌊3^ℓ·ω⌋)` jobs at home;
/// 2. remaining demand is split into chunks of at most `⌊3^ℓ·ω⌋` and chunks
///    are handed to the cube's vehicles one each, in deterministic order;
/// 3. if a *clipped boundary cube* runs out of vehicles (impossible on the
///    infinite grid of the thesis), remaining chunks are appended to
///    existing itineraries round-robin — correctness (all demand served) is
///    preserved and the extra energy is reported honestly by
///    [`OfflinePlan::max_energy`].
///
/// # Errors
///
/// Returns [`PlanError::OmegaNotPositive`] when `ω ≤ 0` while demand exists.
pub fn plan_offline_with<const D: usize>(
    bounds: &GridBounds<D>,
    demand: &DemandMap<D>,
    omega: Ratio,
) -> Result<OfflinePlan<D>, PlanError> {
    if demand.total() == 0 {
        return Ok(OfflinePlan::default());
    }
    if !omega.is_positive() {
        return Err(PlanError::OmegaNotPositive);
    }
    let side = omega.ceil().max(1) as u64;
    // Budget 3^ℓ·ω per the lemma, raised defensively to ⌈M(side)/side^ℓ⌉ so
    // an unsound caller-supplied ω still yields a covering plan (the extra
    // energy is reported honestly).
    let lemma_cap = (Ratio::from_integer(3i128.pow(D as u32)) * omega)
        .floor()
        .max(1) as u64;
    let m = PrefixSums::new(*bounds, demand).max_window_sum(side) as u128;
    let fair_cap = m.div_ceil((side as u128).pow(D as u32)).max(1) as u64;
    Ok(build_plan(bounds, demand, side, lemma_cap.max(fair_cap)))
}

/// Shared plan constructor for a fixed cube side and chunk budget.
fn build_plan<const D: usize>(
    bounds: &GridBounds<D>,
    demand: &DemandMap<D>,
    side: u64,
    chunk_cap: u64,
) -> OfflinePlan<D> {
    let part = CubePartition::new(*bounds, side);
    let mut assignments: Vec<VehicleAssignment<D>> = Vec::new();

    // Group demand by cube (deterministic order via BTreeMap).
    let mut by_cube: BTreeMap<_, Vec<(Point<D>, u64)>> = BTreeMap::new();
    for (p, d) in demand.iter() {
        by_cube.entry(part.cube_of(p)).or_default().push((p, d));
    }

    for (cube_id, points) in by_cube {
        let cube = part.cube_bounds(cube_id);
        // Step 1: local service.
        let mut local: BTreeMap<Point<D>, u64> = BTreeMap::new();
        let mut chunks: Vec<(Point<D>, u64)> = Vec::new();
        for (p, d) in &points {
            let at_home = (*d).min(chunk_cap);
            local.insert(*p, at_home);
            let mut residual = d - at_home;
            while residual > 0 {
                let take = residual.min(chunk_cap);
                chunks.push((*p, take));
                residual -= take;
            }
        }
        // Step 2: one chunk per vehicle of the cube, vehicles in
        // lexicographic order. Every vertex of the cube hosts a vehicle.
        let vehicles: Vec<Point<D>> = cube.iter().collect();
        let mut cube_assignments: Vec<VehicleAssignment<D>> = vehicles
            .iter()
            .map(|home| VehicleAssignment {
                home: *home,
                serve_at_home: local.get(home).copied().unwrap_or(0),
                missions: Vec::new(),
            })
            .collect();
        // Prefer vehicles that have no local work for the first missions —
        // pure load balancing; any order is correct.
        let mut order: Vec<usize> = (0..cube_assignments.len()).collect();
        order.sort_by_key(|&i| (cube_assignments[i].serve_at_home, i));
        for (next, (dest, amount)) in chunks.into_iter().enumerate() {
            // Step 3 fallback: wrap around if (clipped cube only) vehicles
            // run out.
            let slot = order[next % order.len()];
            cube_assignments[slot]
                .missions
                .push(Mission { dest, amount });
        }
        assignments.extend(
            cube_assignments
                .into_iter()
                .filter(|a| a.serve_at_home > 0 || !a.missions.is_empty()),
        );
    }
    OfflinePlan { assignments }
}

/// The verdict of [`verify_plan`].
#[derive(Debug, Clone, Default)]
pub struct PlanCheck {
    /// Human-readable violations; empty iff the plan is valid.
    pub violations: Vec<String>,
    /// Largest per-vehicle energy (recomputed, not trusted from the plan).
    pub max_energy: u64,
    /// Fleet-wide travel energy.
    pub total_travel: u64,
    /// Fleet-wide service energy.
    pub total_service: u64,
}

impl PlanCheck {
    /// Whether the plan serves all demand with consistent bookkeeping.
    pub fn is_valid(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Independently verifies a plan against an instance: every home is a
/// distinct in-bounds vertex (one vehicle per depot), every mission stays in
/// bounds, and the served amounts cover the demand exactly.
pub fn verify_plan<const D: usize>(
    bounds: &GridBounds<D>,
    demand: &DemandMap<D>,
    plan: &OfflinePlan<D>,
) -> PlanCheck {
    let mut check = PlanCheck::default();
    let mut served: BTreeMap<Point<D>, u64> = BTreeMap::new();
    let mut homes: BTreeMap<Point<D>, u32> = BTreeMap::new();
    for a in plan.assignments() {
        *homes.entry(a.home).or_insert(0) += 1;
        if !bounds.contains(a.home) {
            check
                .violations
                .push(format!("home {} out of bounds", a.home));
        }
        if a.serve_at_home > 0 {
            *served.entry(a.home).or_insert(0) += a.serve_at_home;
        }
        for m in &a.missions {
            if !bounds.contains(m.dest) {
                check
                    .violations
                    .push(format!("mission dest {} out of bounds", m.dest));
            }
            if m.amount == 0 {
                check
                    .violations
                    .push(format!("empty mission at {} from {}", m.dest, a.home));
            }
            *served.entry(m.dest).or_insert(0) += m.amount;
        }
        check.max_energy = check.max_energy.max(a.energy());
        check.total_travel += a.travel();
        check.total_service += a.service();
    }
    for (home, count) in homes {
        if count > 1 {
            check
                .violations
                .push(format!("{count} vehicles share depot {home}"));
        }
    }
    // Coverage: exactly the demand, nowhere more, nowhere less.
    for (p, d) in demand.iter() {
        let s = served.get(&p).copied().unwrap_or(0);
        if s != d {
            check
                .violations
                .push(format!("position {p}: served {s}, demand {d}"));
        }
    }
    for (p, s) in &served {
        if demand.get(*p) == 0 && *s > 0 {
            check
                .violations
                .push(format!("position {p}: served {s} with zero demand"));
        }
    }
    check
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::offline_factor;
    use crate::omega::omega_star;
    use cmvrp_grid::pt2;

    fn demand_of(pts: &[(Point<2>, u64)]) -> DemandMap<2> {
        pts.iter().copied().collect()
    }

    #[test]
    fn empty_demand_empty_plan() {
        let b = GridBounds::square(4);
        let plan = plan_offline(&b, &DemandMap::new()).unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan.max_energy(), 0);
        assert!(verify_plan(&b, &DemandMap::new(), &plan).is_valid());
    }

    #[test]
    fn single_point_plan_serves_all() {
        let b = GridBounds::square(21);
        let d = demand_of(&[(pt2(10, 10), 100)]);
        let plan = plan_offline(&b, &d).unwrap();
        let check = verify_plan(&b, &d, &plan);
        assert!(check.is_valid(), "{:?}", check.violations);
        assert_eq!(check.total_service, 100);
    }

    #[test]
    fn plan_energy_within_lemma_bound() {
        // Lemma 2.2.5: max energy ≤ (2·3^ℓ+ℓ)·ω_c, plus integer-rounding
        // slack of ℓ from ⌈ω_c⌉ in the travel term.
        let mut rng = cmvrp_util::Rng::seed_from_u64(8);
        let b = GridBounds::square(24);
        for trial in 0..8 {
            let mut d = DemandMap::new();
            for _ in 0..rng.gen_range(1..8) {
                d.add(
                    pt2(rng.gen_range(4..20), rng.gen_range(4..20)),
                    rng.gen_range(1..150),
                );
            }
            let wc = crate::cubes::omega_c(&b, &d);
            let plan = plan_offline(&b, &d).unwrap();
            let check = verify_plan(&b, &d, &plan);
            assert!(check.is_valid(), "trial {trial}: {:?}", check.violations);
            let bound = (Ratio::from_integer(offline_factor(2) as i128) * wc).ceil() as u64 + 2;
            assert!(
                check.max_energy <= bound,
                "trial {trial}: energy {} > bound {bound} (ω_c = {wc})",
                check.max_energy
            );
        }
    }

    #[test]
    fn theorem_141_sandwich() {
        // ω* ≤ achieved W ≤ (2·3^ℓ+ℓ)·ω* + slack: the full Theorem 1.4.1
        // pipeline on one instance.
        let b = GridBounds::square(31);
        let d = demand_of(&[(pt2(15, 15), 200), (pt2(16, 15), 120), (pt2(4, 4), 9)]);
        let star = omega_star(&b, &d).value;
        let plan = plan_offline(&b, &d).unwrap();
        let check = verify_plan(&b, &d, &plan);
        assert!(check.is_valid());
        let upper = (star * Ratio::from_integer(offline_factor(2) as i128)).ceil() as u64 + 2;
        assert!(check.max_energy <= upper);
    }

    #[test]
    fn missions_stay_in_cube() {
        let b = GridBounds::square(20);
        let d = demand_of(&[(pt2(10, 10), 400)]);
        let plan = plan_offline(&b, &d).unwrap();
        let side = lemma_side(&b, &d);
        let part = CubePartition::new(b, side);
        for a in plan.assignments() {
            for m in &a.missions {
                assert_eq!(
                    part.cube_of(a.home),
                    part.cube_of(m.dest),
                    "vehicle at {} left its cube for {}",
                    a.home,
                    m.dest
                );
            }
        }
    }

    #[test]
    fn verifier_rejects_undercoverage() {
        let b = GridBounds::square(8);
        let d = demand_of(&[(pt2(3, 3), 10)]);
        let mut plan = plan_offline(&b, &d).unwrap();
        // Tamper: remove one unit of service.
        let a = &mut plan.assignments[0];
        if a.serve_at_home > 0 {
            a.serve_at_home -= 1;
        } else {
            a.missions[0].amount -= 1;
        }
        assert!(!verify_plan(&b, &d, &plan).is_valid());
    }

    #[test]
    fn verifier_rejects_overcoverage_and_ghost_service() {
        let b = GridBounds::square(8);
        let d = demand_of(&[(pt2(3, 3), 5)]);
        let mut plan = plan_offline(&b, &d).unwrap();
        plan.assignments.push(VehicleAssignment {
            home: pt2(0, 0),
            serve_at_home: 0,
            missions: vec![Mission {
                dest: pt2(7, 7),
                amount: 2,
            }],
        });
        let check = verify_plan(&b, &d, &plan);
        assert!(!check.is_valid());
    }

    #[test]
    fn verifier_rejects_duplicate_homes() {
        let b = GridBounds::square(4);
        let d = demand_of(&[(pt2(1, 1), 2)]);
        let plan = OfflinePlan {
            assignments: vec![
                VehicleAssignment {
                    home: pt2(1, 1),
                    serve_at_home: 1,
                    missions: vec![],
                },
                VehicleAssignment {
                    home: pt2(1, 1),
                    serve_at_home: 1,
                    missions: vec![],
                },
            ],
        };
        assert!(!verify_plan(&b, &d, &plan).is_valid());
    }

    #[test]
    fn verifier_rejects_out_of_bounds() {
        let b = GridBounds::square(4);
        let d = DemandMap::new();
        let plan = OfflinePlan {
            assignments: vec![VehicleAssignment {
                home: pt2(9, 9),
                serve_at_home: 0,
                missions: vec![Mission {
                    dest: pt2(10, 10),
                    amount: 1,
                }],
            }],
        };
        let check = verify_plan(&b, &d, &plan);
        assert!(!check.is_valid());
        assert!(check.violations.len() >= 2);
    }

    #[test]
    fn energy_accounting() {
        let a = VehicleAssignment {
            home: pt2(0, 0),
            serve_at_home: 3,
            missions: vec![
                Mission {
                    dest: pt2(2, 0),
                    amount: 4,
                },
                Mission {
                    dest: pt2(2, 2),
                    amount: 1,
                },
            ],
        };
        assert_eq!(a.travel(), 4);
        assert_eq!(a.service(), 8);
        assert_eq!(a.energy(), 12);
    }

    #[test]
    fn omega_not_positive_error() {
        let b = GridBounds::square(4);
        let d = demand_of(&[(pt2(1, 1), 3)]);
        let err = plan_offline_with(&b, &d, Ratio::ZERO).unwrap_err();
        assert_eq!(err, PlanError::OmegaNotPositive);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn dense_uniform_demand_plan() {
        let b = GridBounds::square(12);
        let mut d = DemandMap::new();
        for p in b.iter() {
            d.add(p, 2);
        }
        let plan = plan_offline(&b, &d).unwrap();
        let check = verify_plan(&b, &d, &plan);
        assert!(check.is_valid(), "{:?}", check.violations);
        assert_eq!(check.total_service, 288);
    }
}
