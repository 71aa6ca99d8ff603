//! Maximum-density subset selection: `max_T Σ_{x∈T} w(x) / |cover(T)|`.
//!
//! This is the right-hand side of Lemma 2.2.2 in abstract form: *items* carry
//! weights (demands `d(x)`) and each item covers a set of *cells* (the ball
//! `N_r(x)`); selecting a set `T` of items incurs the union of their covers,
//! and we maximize the weight-to-cover-size ratio.
//!
//! The solver uses Dinkelbach's algorithm over exact rationals: for a guess
//! `λ = p/q`, the sign of `max_T (q·Σw − p·|cover(T)|)` is decided by a
//! min-cut on a project-selection network (source → item with capacity
//! `q·w`, item → covered cell with capacity `∞`, cell → sink with capacity
//! `p`). The maximizer is the source side of the cut; the ratio strictly
//! increases each round, so the iteration terminates at the exact optimum.
//!
//! A cover may also be reached through *gadget* nodes (item → gadget → … →
//! cell, all `∞`), which is how [`crate::grid_density`] encodes radius-`r`
//! balls in `O(cells · r)` arcs. One network is built per solve and only its
//! capacities change between guesses. Each guess after the first keeps only
//! the items on the source side of the previous minimal cut: minimal cuts
//! shrink as `λ` grows (Gallo, Grigoriadis & Tarjan 1989), so the restricted
//! network has the same minimal cut and Dinkelbach visits the same guesses.

use crate::maxflow::{FlowNetwork, INF};
use cmvrp_util::Ratio;

/// An instance of the maximum-density subset problem.
///
/// # Examples
///
/// ```
/// use cmvrp_flow::DensityProblem;
///
/// // Two items covering overlapping cells; picking both shares the cover.
/// let p = DensityProblem::new(vec![3, 3], vec![vec![0, 1], vec![1, 2]], 3);
/// let r = p.solve();
/// assert_eq!(r.ratio, cmvrp_util::Ratio::new(6, 3)); // both items, cells {0,1,2}
/// assert_eq!(r.subset, vec![0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct DensityProblem {
    weights: Vec<u64>,
    num_cells: usize,
    num_gadgets: usize,
    /// `∞` arcs in compressed rows: row `u` (items `0..n`, then gadget `g`
    /// as row `n + g`) points at `targets[row_start[u]..row_start[u + 1]]`,
    /// where target `j < num_cells` is cell `j` and `num_cells + g` is
    /// gadget `g`.
    row_start: Vec<usize>,
    targets: Vec<u32>,
}

/// The result of a density solve: the optimal ratio and one maximizing
/// subset of item indices (sorted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DensityResult {
    /// The optimum `max_T Σ w / |cover(T)|`.
    pub ratio: Ratio,
    /// The largest subset of positive-weight items attaining the optimum
    /// (item indices, ascending).
    pub subset: Vec<usize>,
    /// Number of Dinkelbach iterations performed (for diagnostics/benches).
    pub iterations: usize,
}

impl DensityProblem {
    /// Creates an instance with `weights[i]` the weight of item `i` and
    /// `cover[i]` the cells item `i` covers (indices `< num_cells`).
    ///
    /// # Panics
    ///
    /// Panics if `weights` and `cover` disagree in length, a cover index is
    /// out of range, or any item has an empty cover while having positive
    /// weight (its ratio would be unbounded — on the grid every item covers
    /// at least itself).
    pub fn new(weights: Vec<u64>, cover: Vec<Vec<usize>>, num_cells: usize) -> Self {
        assert_eq!(weights.len(), cover.len(), "weights/cover length mismatch");
        for (i, c) in cover.iter().enumerate() {
            assert!(
                c.iter().all(|&j| j < num_cells),
                "cover index out of range for item {i}"
            );
            assert!(
                !(c.is_empty() && weights[i] > 0),
                "item {i} has positive weight but empty cover"
            );
        }
        let rows = cover.iter().map(|c| c.iter().map(|&j| j as u32));
        Self::with_gadgets(weights, num_cells, 0, rows)
    }

    /// Creates an instance whose covers run through `num_gadgets` gadget
    /// nodes. `rows` yields the `∞` arcs of every item, then of every
    /// gadget, as targets numbered like [`DensityProblem`]'s `targets`. The
    /// cover of an item is every cell reachable from it; the caller
    /// guarantees it is nonempty for positive weights.
    pub(crate) fn with_gadgets<R, I>(
        weights: Vec<u64>,
        num_cells: usize,
        num_gadgets: usize,
        rows: R,
    ) -> Self
    where
        R: IntoIterator<Item = I>,
        I: IntoIterator<Item = u32>,
    {
        assert!(
            num_cells + num_gadgets < u32::MAX as usize,
            "too many cells for u32 targets"
        );
        let mut row_start = vec![0];
        let mut targets = Vec::new();
        for row in rows {
            targets.extend(row);
            row_start.push(targets.len());
        }
        assert_eq!(
            row_start.len(),
            weights.len() + num_gadgets + 1,
            "one row per item and gadget"
        );
        debug_assert!(targets
            .iter()
            .all(|&j| (j as usize) < num_cells + num_gadgets));
        DensityProblem {
            weights,
            num_cells,
            num_gadgets,
            row_start,
            targets,
        }
    }

    /// Number of items.
    pub fn num_items(&self) -> usize {
        self.weights.len()
    }

    /// The `∞` arcs leaving row `u` (an item, or gadget `u − n`).
    fn row(&self, u: usize) -> &[u32] {
        &self.targets[self.row_start[u]..self.row_start[u + 1]]
    }

    /// Evaluates `Σ_{i∈subset} w_i / |∪ cover|` for an explicit subset.
    ///
    /// # Panics
    ///
    /// Panics if the subset covers no cells (e.g. is empty).
    pub fn ratio_of(&self, subset: &[usize]) -> Ratio {
        let w: u64 = subset.iter().map(|&i| self.weights[i]).sum();
        let n = self.weights.len();
        let mut seen = vec![false; self.num_cells + self.num_gadgets];
        let mut rows: Vec<usize> = subset.to_vec();
        let mut cells = 0usize;
        while let Some(u) = rows.pop() {
            for &j in self.row(u) {
                let j = j as usize;
                if !seen[j] {
                    seen[j] = true;
                    match j.checked_sub(self.num_cells) {
                        None => cells += 1,
                        Some(g) => rows.push(n + g),
                    }
                }
            }
        }
        assert!(cells > 0, "subset has empty cover");
        Ratio::new(w as i128, cells as i128)
    }

    /// Solves for the maximum density. Returns ratio 0 with an empty subset
    /// when every weight is zero.
    ///
    /// The returned subset is the union of all densest subsets of
    /// positive-weight items: the last minimal cut Dinkelbach finds below
    /// the optimum contains every one of them.
    pub fn solve(&self) -> DensityResult {
        let total_w: u64 = self.weights.iter().sum();
        if total_w == 0 {
            return DensityResult {
                ratio: Ratio::ZERO,
                subset: Vec::new(),
                iterations: 0,
            };
        }
        let n = self.weights.len();
        let m = self.num_cells;
        // Node layout: 0 source, 1..=n items, then one node per target
        // (cells, then gadgets), then the sink.
        let source = 0usize;
        let sink = 1 + n + m + self.num_gadgets;
        let mut net = FlowNetwork::new(sink + 1);
        let supply: Vec<_> = (0..n).map(|i| net.add_edge(source, 1 + i, 0)).collect();
        for u in 0..n + self.num_gadgets {
            let from = if u < n { 1 + u } else { 1 + m + u };
            for &j in self.row(u) {
                net.add_edge(from, 1 + n + j as usize, INF);
            }
        }
        let drain: Vec<_> = (0..m).map(|c| net.add_edge(1 + n + c, sink, 0)).collect();

        // Initial guess: the ratio of the full support.
        let mut best: Vec<usize> = (0..n).filter(|&i| self.weights[i] > 0).collect();
        let mut lambda = self.ratio_of(&best);
        let mut iterations = 0usize;
        loop {
            iterations += 1;
            assert!(iterations <= 10_000, "Dinkelbach failed to converge");
            // The sign of max_T (q·Σw − p·|cover(T)|) over the items of the
            // previous minimal cut (every positive item at first).
            let (p, q) = (lambda.numer(), lambda.denom());
            assert!(p >= 0, "negative lambda");
            net.clear_flow();
            for &edge in &supply {
                net.set_capacity(edge, 0);
            }
            let mut total: i128 = 0;
            for &i in &best {
                let cap = self.weights[i] as i128 * q;
                total += cap;
                net.set_capacity(supply[i], cap);
            }
            for &edge in &drain {
                net.set_capacity(edge, p);
            }
            let cut = net.max_flow(source, sink);
            let side = net.min_cut_source_side(source);
            let subset: Vec<usize> = best.iter().copied().filter(|&i| side[1 + i]).collect();
            if total <= cut || subset.is_empty() {
                return DensityResult {
                    ratio: lambda,
                    subset: best,
                    iterations,
                };
            }
            let next = self.ratio_of(&subset);
            debug_assert!(next > lambda, "Dinkelbach ratio must increase");
            lambda = next;
            best = subset;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustive reference solver over all nonempty subsets.
    fn brute(problem: &DensityProblem) -> Ratio {
        let n = problem.num_items();
        assert!(n <= 16);
        let mut best = Ratio::ZERO;
        for mask in 1u32..(1 << n) {
            let subset: Vec<usize> = (0..n).filter(|i| mask & (1 << i) != 0).collect();
            if subset.iter().all(|&i| problem.row(i).is_empty()) {
                continue;
            }
            let r = problem.ratio_of(&subset);
            if r > best {
                best = r;
            }
        }
        best
    }

    #[test]
    fn single_item() {
        let p = DensityProblem::new(vec![10], vec![vec![0, 1, 2]], 3);
        let r = p.solve();
        assert_eq!(r.ratio, Ratio::new(10, 3));
        assert_eq!(r.subset, vec![0]);
    }

    #[test]
    fn prefers_denser_item() {
        let p = DensityProblem::new(vec![10, 9], vec![vec![0, 1, 2], vec![3]], 4);
        let r = p.solve();
        assert_eq!(r.ratio, Ratio::new(9, 1));
        assert_eq!(r.subset, vec![1]);
    }

    #[test]
    fn shared_cover_encourages_grouping() {
        // Separately 5/3 each; together (5+5)/4 = 5/2 > 5/3.
        let p = DensityProblem::new(vec![5, 5], vec![vec![0, 1, 2], vec![1, 2, 3]], 4);
        let r = p.solve();
        assert_eq!(r.ratio, Ratio::new(10, 4));
        assert_eq!(r.subset, vec![0, 1]);
    }

    #[test]
    fn zero_weights() {
        let p = DensityProblem::new(vec![0, 0], vec![vec![0], vec![1]], 2);
        let r = p.solve();
        assert_eq!(r.ratio, Ratio::ZERO);
        assert!(r.subset.is_empty());
    }

    #[test]
    fn zero_weight_item_with_empty_cover_allowed() {
        let p = DensityProblem::new(vec![0, 4], vec![vec![], vec![0]], 1);
        assert_eq!(p.solve().ratio, Ratio::new(4, 1));
    }

    #[test]
    #[should_panic(expected = "empty cover")]
    fn positive_weight_empty_cover_rejected() {
        let _ = DensityProblem::new(vec![1], vec![vec![]], 0);
    }

    #[test]
    fn matches_bruteforce_on_random_instances() {
        let mut rng = cmvrp_util::Rng::seed_from_u64(42);
        for trial in 0..30 {
            let n = rng.gen_range(1..=8);
            let m = rng.gen_range(1..=6);
            let weights: Vec<u64> = (0..n).map(|_| rng.gen_range(0..20)).collect();
            let cover: Vec<Vec<usize>> = (0..n)
                .map(|_| {
                    let k = rng.gen_range(1..=m);
                    let mut c: Vec<usize> = (0..k).map(|_| rng.gen_range(0..m)).collect();
                    c.sort_unstable();
                    c.dedup();
                    c
                })
                .collect();
            let p = DensityProblem::new(weights, cover, m);
            let got = p.solve();
            let want = brute(&p);
            assert_eq!(got.ratio, want, "trial {trial}");
            if !got.subset.is_empty() {
                assert_eq!(p.ratio_of(&got.subset), got.ratio, "trial {trial}");
            }
        }
    }

    #[test]
    fn result_subset_attains_ratio() {
        let p = DensityProblem::new(
            vec![7, 2, 9, 1],
            vec![vec![0, 1], vec![1], vec![2, 3, 4], vec![4]],
            5,
        );
        let r = p.solve();
        assert_eq!(p.ratio_of(&r.subset), r.ratio);
    }
}
