//! A CMVRP instance: bounded grid plus demand, with the full off-line
//! toolkit attached.

use crate::alg1::approx_woff;
use crate::constants::offline_factor;
use crate::cubes::omega_c;
use crate::omega::{omega_star, OmegaStar};
use crate::plan::{plan_offline, verify_plan, OfflinePlan, PlanCheck, PlanError};
use cmvrp_grid::{DemandMap, GridBounds};
use cmvrp_util::Ratio;

/// A problem instance of §1.3: the grid `Z^ℓ` (bounded here), one vehicle
/// per vertex, demand `d(·)`, unit travel and unit service costs.
///
/// # Examples
///
/// ```
/// use cmvrp_core::Instance;
/// use cmvrp_grid::{DemandMap, GridBounds, pt2};
///
/// let mut d = DemandMap::new();
/// d.add(pt2(5, 5), 40);
/// let inst = Instance::new(GridBounds::square(11), d);
/// let (lo, hi) = inst.woff_bounds();
/// assert!(lo <= hi);
/// assert!(lo.is_positive());
/// ```
#[derive(Debug, Clone)]
pub struct Instance<const D: usize> {
    bounds: GridBounds<D>,
    demand: DemandMap<D>,
}

impl<const D: usize> Instance<D> {
    /// Creates an instance.
    ///
    /// # Panics
    ///
    /// Panics if any demand point lies outside the bounds.
    pub fn new(bounds: GridBounds<D>, demand: DemandMap<D>) -> Self {
        for p in demand.support() {
            assert!(bounds.contains(p), "demand point {p} outside bounds");
        }
        Instance { bounds, demand }
    }

    /// The grid bounds.
    pub fn bounds(&self) -> &GridBounds<D> {
        &self.bounds
    }

    /// The demand function.
    pub fn demand(&self) -> &DemandMap<D> {
        &self.demand
    }

    /// The dimension `ℓ`.
    pub fn dimension(&self) -> u32 {
        D as u32
    }

    /// The exact lower-bound quantity `ω* = max_T ω_T` of Theorem 1.4.1,
    /// with a witness subset.
    pub fn omega_star(&self) -> OmegaStar<D> {
        omega_star(&self.bounds, &self.demand)
    }

    /// The cube quantity `ω_c` of Corollary 2.2.7, from one prefix-sum
    /// table over the demand's support (`Π(kᵢ+1)` cells for `kᵢ` distinct
    /// support coordinates on axis `i`, never more than the grid's volume).
    /// Exact: see [`crate::max_window_sum`].
    pub fn omega_c(&self) -> Ratio {
        omega_c(&self.bounds, &self.demand)
    }

    /// Algorithm 1's `2(2·3^ℓ+ℓ)`-approximation of `Woff` (linear time).
    pub fn approx_woff(&self) -> Ratio {
        approx_woff(&self.bounds, &self.demand)
    }

    /// The Theorem 1.4.1 sandwich computed from `ω_c`:
    /// `ω_c ≤ Woff ≤ (2·3^ℓ+ℓ)·ω_c` (Corollary 2.2.7).
    pub fn woff_bounds(&self) -> (Ratio, Ratio) {
        let wc = self.omega_c();
        (
            wc,
            wc * Ratio::from_integer(offline_factor(D as u32) as i128),
        )
    }

    /// Builds the Lemma 2.2.5 serving plan.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanError`] (cannot occur for instances built through
    /// [`Instance::new`]).
    pub fn plan_offline(&self) -> Result<OfflinePlan<D>, PlanError> {
        plan_offline(&self.bounds, &self.demand)
    }

    /// Verifies an arbitrary plan against this instance.
    pub fn verify(&self, plan: &OfflinePlan<D>) -> PlanCheck {
        verify_plan(&self.bounds, &self.demand, plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmvrp_grid::pt2;

    fn instance() -> Instance<2> {
        let mut d = DemandMap::new();
        d.add(pt2(6, 6), 70);
        d.add(pt2(2, 9), 12);
        Instance::new(GridBounds::square(13), d)
    }

    #[test]
    fn bounds_order() {
        let inst = instance();
        let (lo, hi) = inst.woff_bounds();
        assert!(lo <= hi);
        assert_eq!(hi, lo * Ratio::from_integer(20));
    }

    #[test]
    fn omega_c_below_omega_star_via_facade() {
        let inst = instance();
        assert!(inst.omega_c() <= inst.omega_star().value);
    }

    #[test]
    fn approx_at_least_exact() {
        let inst = instance();
        assert!(inst.approx_woff() >= inst.omega_star().value);
    }

    #[test]
    fn plan_roundtrip() {
        let inst = instance();
        let plan = inst.plan_offline().unwrap();
        let check = inst.verify(&plan);
        assert!(check.is_valid(), "{:?}", check.violations);
        assert_eq!(check.total_service, 82);
    }

    #[test]
    fn accessors() {
        let inst = instance();
        assert_eq!(inst.dimension(), 2);
        assert_eq!(inst.demand().total(), 82);
        assert_eq!(inst.bounds().volume(), 169);
    }

    #[test]
    #[should_panic(expected = "outside bounds")]
    fn out_of_bounds_demand_rejected() {
        let mut d = DemandMap::new();
        d.add(pt2(99, 99), 1);
        let _ = Instance::new(GridBounds::square(4), d);
    }
}
