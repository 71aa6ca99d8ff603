//! Arrival sequences: the on-line face of a demand function.
//!
//! §1.3 of the thesis models jobs as a sequence `x_1, x_2, …, x_k` of
//! positions arriving at increasing times, each requiring one unit of
//! energy; `d(x)` is the number of arrivals at `x`. The on-line simulator
//! consumes a [`JobSequence`]; the orderings here control *when* each unit
//! of a demand map arrives, which matters for adversarial scenarios
//! (Chapter 4's alternating example) but not for the totals.

use cmvrp_grid::{DemandMap, Point};
use cmvrp_util::Rng;

/// A finite sequence of unit jobs; index order is arrival order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JobSequence<const D: usize> {
    jobs: Vec<Point<D>>,
}

impl<const D: usize> JobSequence<D> {
    /// Creates a sequence from explicit positions (in arrival order).
    pub fn new(jobs: Vec<Point<D>>) -> Self {
        JobSequence { jobs }
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The jobs in arrival order.
    pub fn jobs(&self) -> &[Point<D>] {
        &self.jobs
    }

    /// Iterates jobs in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = Point<D>> + '_ {
        self.jobs.iter().copied()
    }

    /// The demand function `d(x)` induced by this sequence.
    pub fn to_demand(&self) -> DemandMap<D> {
        self.jobs.iter().map(|p| (*p, 1u64)).collect()
    }
}

impl<const D: usize> FromIterator<Point<D>> for JobSequence<D> {
    fn from_iter<I: IntoIterator<Item = Point<D>>>(iter: I) -> Self {
        JobSequence {
            jobs: iter.into_iter().collect(),
        }
    }
}

/// How a demand map is linearized into an arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Ordering {
    /// All jobs of each position arrive consecutively, positions in point
    /// order — the gentlest adversary.
    #[default]
    Sequential,
    /// Positions take turns releasing one job at a time — spreads the load
    /// in time (round-robin over the support).
    Interleaved,
    /// A seeded uniformly random permutation of all jobs.
    Shuffled,
}

/// Linearizes `demand` into a [`JobSequence`] with the given ordering;
/// `seed` is only used by [`Ordering::Shuffled`].
pub fn from_demand<const D: usize>(
    demand: &DemandMap<D>,
    ordering: Ordering,
    seed: u64,
) -> JobSequence<D> {
    match ordering {
        Ordering::Sequential => {
            let mut jobs = Vec::with_capacity(demand.total() as usize);
            for (p, d) in demand.iter() {
                jobs.extend(std::iter::repeat_n(p, d as usize));
            }
            JobSequence { jobs }
        }
        Ordering::Interleaved => {
            let mut remaining: Vec<(Point<D>, u64)> = demand.iter().collect();
            let mut jobs = Vec::with_capacity(demand.total() as usize);
            while !remaining.is_empty() {
                remaining.retain_mut(|(p, d)| {
                    jobs.push(*p);
                    *d -= 1;
                    *d > 0
                });
            }
            JobSequence { jobs }
        }
        Ordering::Shuffled => {
            let mut seq = from_demand(demand, Ordering::Sequential, seed);
            let mut rng = Rng::seed_from_u64(seed);
            rng.shuffle(&mut seq.jobs);
            seq
        }
    }
}

/// The §4.2 adversarial sequence: jobs alternate `i, j, i, j, …` with `d`
/// jobs at each of the two positions (total `2·d`).
pub fn alternating<const D: usize>(i: Point<D>, j: Point<D>, d: u64) -> JobSequence<D> {
    let mut jobs = Vec::with_capacity(2 * d as usize);
    for _ in 0..d {
        jobs.push(i);
        jobs.push(j);
    }
    JobSequence { jobs }
}

/// Uniform-rate trickle: the support takes turns releasing one job at a
/// time, like [`Ordering::Interleaved`], but the turn order is a seeded
/// permutation of the support rather than point order — a steady load with
/// no spatial bias in who goes first.
pub fn uniform_rate<const D: usize>(demand: &DemandMap<D>, seed: u64) -> JobSequence<D> {
    let mut remaining: Vec<(Point<D>, u64)> = demand.iter().collect();
    let mut rng = Rng::seed_from_u64(seed);
    rng.shuffle(&mut remaining);
    let mut jobs = Vec::with_capacity(demand.total() as usize);
    while !remaining.is_empty() {
        remaining.retain_mut(|(p, d)| {
            jobs.push(*p);
            *d -= 1;
            *d > 0
        });
    }
    JobSequence { jobs }
}

/// Diurnal wave: the grid is cut into `waves` vertical bands over the
/// demand's x-extent, and band `k`'s jobs arrive (shuffled) during wave
/// `k` — demand sweeping across the field like daylight. Conserves the
/// demand multiset; `waves == 1` degenerates to [`Ordering::Shuffled`].
pub fn diurnal<const D: usize>(demand: &DemandMap<D>, waves: u64, seed: u64) -> JobSequence<D> {
    let waves = waves.max(1);
    let (lo, hi) = match demand.support().map(|p| p[0]).fold(None, |acc, x| {
        Some(acc.map_or((x, x), |(lo, hi): (i64, i64)| (lo.min(x), hi.max(x))))
    }) {
        Some(range) => range,
        None => return JobSequence::default(),
    };
    let width = (hi - lo + 1) as u64;
    let band = |p: &Point<D>| -> u64 {
        // Band index in 0..waves, proportional position of x in [lo, hi].
        (((p[0] - lo) as u64) * waves / width).min(waves - 1)
    };
    let mut jobs = Vec::with_capacity(demand.total() as usize);
    for w in 0..waves {
        let mut wave: Vec<Point<D>> = Vec::new();
        for (p, d) in demand.iter() {
            if band(&p) == w {
                wave.extend(std::iter::repeat_n(p, d as usize));
            }
        }
        let mut rng = Rng::seed_from_u64(seed ^ w.wrapping_mul(0x9E3779B97F4A7C15));
        rng.shuffle(&mut wave);
        jobs.extend(wave);
    }
    JobSequence { jobs }
}

/// Flash crowd: a shuffled background with one contiguous burst — all the
/// jobs of the heaviest demand point — inserted `at_percent` of the way
/// through the sequence. Models a quiet field interrupted by an incident.
pub fn flash_crowd<const D: usize>(
    demand: &DemandMap<D>,
    at_percent: u64,
    seed: u64,
) -> JobSequence<D> {
    let hotspot = demand
        .iter()
        .fold(None, |best: Option<(Point<D>, u64)>, (p, d)| match best {
            Some((_, bd)) if bd >= d => best,
            _ => Some((p, d)),
        });
    let (hot, burst_len) = match hotspot {
        Some(h) => h,
        None => return JobSequence::default(),
    };
    let mut background: Vec<Point<D>> = Vec::new();
    for (p, d) in demand.iter() {
        if p != hot {
            background.extend(std::iter::repeat_n(p, d as usize));
        }
    }
    let mut rng = Rng::seed_from_u64(seed);
    rng.shuffle(&mut background);
    let cut = (background.len() as u64 * at_percent.min(100) / 100) as usize;
    let mut jobs = Vec::with_capacity(background.len() + burst_len as usize);
    jobs.extend_from_slice(&background[..cut]);
    jobs.extend(std::iter::repeat_n(hot, burst_len as usize));
    jobs.extend_from_slice(&background[cut..]);
    JobSequence { jobs }
}

/// Moving hotspot: jobs arrive as a hotspot sweeps the field along axis 0
/// (left to right), with a small seeded jitter so nearby columns overlap
/// in time instead of arriving in lockstep.
pub fn moving_hotspot<const D: usize>(demand: &DemandMap<D>, seed: u64) -> JobSequence<D> {
    const JITTER: i64 = 4;
    let mut rng = Rng::seed_from_u64(seed);
    let mut keyed: Vec<(i64, u64, Point<D>)> = Vec::with_capacity(demand.total() as usize);
    for (p, d) in demand.iter() {
        for _ in 0..d {
            // The tiebreak makes the sort order independent of the
            // (deterministic) iteration order within a column.
            keyed.push((p[0] * JITTER + rng.gen_range(0..JITTER), rng.next_u64(), p));
        }
    }
    keyed.sort_by_key(|&(k, tie, _)| (k, tie));
    JobSequence {
        jobs: keyed.into_iter().map(|(_, _, p)| p).collect(),
    }
}

/// The §4.2 adversary lifted to a demand map: the two heaviest support
/// points alternate `i, j, i, j, …` for as many pairs as they can sustain,
/// and everything left over arrives shuffled afterwards. With exactly two
/// equal-demand points this reproduces [`alternating`] exactly.
pub fn alternating_from_demand<const D: usize>(demand: &DemandMap<D>, seed: u64) -> JobSequence<D> {
    let mut support: Vec<(Point<D>, u64)> = demand.iter().collect();
    support.sort_by_key(|&(_, d)| std::cmp::Reverse(d));
    if support.len() < 2 {
        return from_demand(demand, Ordering::Shuffled, seed);
    }
    let (i, di) = support[0];
    let (j, dj) = support[1];
    let pairs = di.min(dj);
    let mut jobs = alternating(i, j, pairs).jobs;
    let mut rest: Vec<Point<D>> = Vec::new();
    for (p, d) in demand.iter() {
        let used = if p == i || p == j { pairs } else { 0 };
        rest.extend(std::iter::repeat_n(p, (d - used) as usize));
    }
    let mut rng = Rng::seed_from_u64(seed);
    rng.shuffle(&mut rest);
    jobs.extend(rest);
    JobSequence { jobs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmvrp_grid::pt2;

    fn small_map() -> DemandMap<2> {
        [(pt2(0, 0), 3u64), (pt2(1, 0), 1), (pt2(5, 5), 2)]
            .into_iter()
            .collect()
    }

    #[test]
    fn sequential_roundtrip() {
        let d = small_map();
        let seq = from_demand(&d, Ordering::Sequential, 0);
        assert_eq!(seq.len(), 6);
        assert_eq!(seq.to_demand(), d);
        // Consecutive runs per position.
        assert_eq!(&seq.jobs()[0..3], &[pt2(0, 0); 3]);
    }

    #[test]
    fn interleaved_roundtrip_and_fairness() {
        let d = small_map();
        let seq = from_demand(&d, Ordering::Interleaved, 0);
        assert_eq!(seq.to_demand(), d);
        // First round touches every position once.
        let first3: Vec<_> = seq.jobs()[0..3].to_vec();
        assert!(first3.contains(&pt2(0, 0)));
        assert!(first3.contains(&pt2(1, 0)));
        assert!(first3.contains(&pt2(5, 5)));
    }

    #[test]
    fn shuffled_is_permutation_and_seeded() {
        let d = small_map();
        let a = from_demand(&d, Ordering::Shuffled, 5);
        let b = from_demand(&d, Ordering::Shuffled, 5);
        assert_eq!(a, b);
        assert_eq!(a.to_demand(), d);
    }

    #[test]
    fn alternating_shape() {
        let seq = alternating(pt2(0, 0), pt2(4, 0), 3);
        assert_eq!(seq.len(), 6);
        assert_eq!(seq.jobs()[0], pt2(0, 0));
        assert_eq!(seq.jobs()[1], pt2(4, 0));
        assert_eq!(seq.jobs()[4], pt2(0, 0));
        assert_eq!(seq.to_demand().get(pt2(0, 0)), 3);
    }

    #[test]
    fn empty_demand_empty_sequence() {
        let d: DemandMap<2> = DemandMap::new();
        for o in [
            Ordering::Sequential,
            Ordering::Interleaved,
            Ordering::Shuffled,
        ] {
            assert!(from_demand(&d, o, 0).is_empty());
        }
    }

    #[test]
    fn uniform_rate_conserves_and_is_seeded() {
        let d = small_map();
        let a = uniform_rate(&d, 7);
        assert_eq!(a, uniform_rate(&d, 7));
        assert_eq!(a.to_demand(), d);
        // Each round touches every still-live position once.
        let first3: Vec<_> = a.jobs()[0..3].to_vec();
        assert!(first3.contains(&pt2(0, 0)));
        assert!(first3.contains(&pt2(1, 0)));
        assert!(first3.contains(&pt2(5, 5)));
    }

    #[test]
    fn diurnal_sweeps_left_to_right() {
        let mut d = DemandMap::new();
        d.add(pt2(0, 3), 10);
        d.add(pt2(9, 3), 10);
        let seq = diurnal(&d, 2, 3);
        assert_eq!(seq.to_demand(), d);
        // Two bands: all left-column jobs strictly before right-column jobs.
        assert_eq!(&seq.jobs()[0..10], &[pt2(0, 3); 10]);
        assert_eq!(&seq.jobs()[10..20], &[pt2(9, 3); 10]);
        assert_eq!(seq, diurnal(&d, 2, 3));
        assert!(diurnal(&DemandMap::<2>::new(), 3, 0).is_empty());
    }

    #[test]
    fn flash_crowd_bursts_the_heaviest_point() {
        let mut d = small_map(); // heaviest: (0,0) with 3
        d.add(pt2(0, 0), 4); // now 7 of 10 jobs
        let seq = flash_crowd(&d, 50, 9);
        assert_eq!(seq.to_demand(), d);
        // Background is 3 jobs; the burst of 7 starts at 50% of it.
        assert_eq!(&seq.jobs()[1..8], &[pt2(0, 0); 7]);
        assert_eq!(seq, flash_crowd(&d, 50, 9));
    }

    #[test]
    fn moving_hotspot_orders_by_x() {
        let mut d = DemandMap::new();
        d.add(pt2(0, 0), 5);
        d.add(pt2(20, 7), 5);
        let seq = moving_hotspot(&d, 11);
        assert_eq!(seq.to_demand(), d);
        assert_eq!(&seq.jobs()[0..5], &[pt2(0, 0); 5]);
        assert_eq!(seq, moving_hotspot(&d, 11));
    }

    #[test]
    fn alternating_from_demand_matches_section_4_2() {
        let mut d = DemandMap::new();
        d.add(pt2(0, 0), 3);
        d.add(pt2(4, 0), 3);
        let seq = alternating_from_demand(&d, 1);
        assert_eq!(seq, alternating(pt2(0, 0), pt2(4, 0), 3));
        // Leftovers beyond the pairs arrive after the alternation.
        let mut d = small_map(); // (0,0):3, (1,0):1, (5,5):2 → pair (0,0)/(5,5)
        d.add(pt2(5, 5), 2); // (5,5):4 — heaviest two are (5,5):4 and (0,0):3
        let seq = alternating_from_demand(&d, 1);
        assert_eq!(seq.to_demand(), d);
        assert_eq!(seq.jobs()[0], pt2(5, 5));
        assert_eq!(seq.jobs()[1], pt2(0, 0));
        assert_eq!(seq.len(), 8);
        // Single-point demand degenerates to a shuffle.
        let mut single = DemandMap::new();
        single.add(pt2(2, 2), 4);
        assert_eq!(alternating_from_demand(&single, 0).len(), 4);
    }

    #[test]
    fn from_iterator() {
        let seq: JobSequence<2> = [pt2(1, 1), pt2(2, 2)].into_iter().collect();
        assert_eq!(seq.len(), 2);
        assert_eq!(seq.iter().count(), 2);
    }
}
