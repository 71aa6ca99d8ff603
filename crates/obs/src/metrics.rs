//! A tiny metrics registry: named counters, gauges, and fixed-bucket
//! histograms.
//!
//! The registry is cheap enough to stay always-on in the simulators
//! (updates are one `BTreeMap` lookup plus integer arithmetic) and renders
//! to `(name, value)` rows so callers can format it however they like —
//! the CLI feeds the rows to `cmvrp_util::Table`.

use std::collections::BTreeMap;

/// A histogram over `u64` observations with fixed bucket upper bounds plus
/// an implicit overflow bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Inclusive upper bounds of the finite buckets, strictly increasing.
    bounds: Vec<u64>,
    /// `counts[i]` observations fell in bucket `i`; the last entry is the
    /// overflow bucket (`> bounds.last()`).
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
}

/// Default bucket bounds: powers of two up to 4096 — a good fit for
/// message delays, queue depths, and per-vehicle energies alike.
pub const DEFAULT_BUCKETS: [u64; 13] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

impl Histogram {
    /// Creates a histogram with the given inclusive bucket upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn with_bounds(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bucket bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The smallest bucket bound at or below which at least a `q` fraction
    /// of observations fall, capped at the largest observation: an upper
    /// estimate of the `q`-quantile that never exceeds [`Histogram::max`]
    /// (the overflow bucket has no bound, so it reports the max).
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of [0, 1]");
        if self.count == 0 {
            return 0;
        }
        let target = (q * self.count as f64).ceil() as u64;
        let mut acc = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return self.bounds.get(i).map_or(self.max, |&b| b.min(self.max));
            }
        }
        self.max
    }

    /// The raw per-bucket counts, including the trailing overflow bucket
    /// (`len == bounds.len() + 1`). Together with [`Histogram::count`],
    /// [`Histogram::sum`], and [`Histogram::max`] this is the histogram's
    /// full durable state, used by the checkpoint subsystem.
    pub fn raw_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Overwrites the histogram's accumulated state with counts captured
    /// from [`Histogram::raw_counts`] on an identically bucketed
    /// histogram, plus the matching `count`/`sum`/`max` totals.
    ///
    /// # Errors
    ///
    /// Refuses, leaving the histogram as it was, when `counts` has the
    /// wrong length for this bucketing.
    pub fn restore_state(
        &mut self,
        counts: &[u64],
        count: u64,
        sum: u128,
        max: u64,
    ) -> Result<(), String> {
        if counts.len() != self.counts.len() {
            return Err(format!(
                "{} bucket counts for a histogram with {} buckets",
                counts.len(),
                self.counts.len()
            ));
        }
        self.counts.copy_from_slice(counts);
        self.count = count;
        self.sum = sum;
        self.max = max;
        Ok(())
    }

    /// Iterates `(inclusive upper bound, count)` pairs; the final pair uses
    /// `u64::MAX` for the overflow bucket.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.bounds
            .iter()
            .copied()
            .chain(std::iter::once(u64::MAX))
            .zip(self.counts.iter().copied())
    }
}

/// A registry of named counters, gauges, and histograms.
///
/// # Examples
///
/// ```
/// use cmvrp_obs::Metrics;
///
/// let mut m = Metrics::new();
/// m.inc("net.msgs_sent");
/// m.add("net.msgs_sent", 2);
/// m.observe("net.msg_delay", 3);
/// assert_eq!(m.counter("net.msgs_sent"), 3);
/// assert_eq!(m.histogram("net.msg_delay").unwrap().count(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    hists: BTreeMap<String, Histogram>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Increments the counter `name` by 1 (creating it at 0).
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `v` to the counter `name` (creating it at 0).
    pub fn add(&mut self, name: &str, v: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += v,
            None => {
                self.counters.insert(name.to_string(), v);
            }
        }
    }

    /// Reads the counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the gauge `name` to `v`.
    pub fn gauge_set(&mut self, name: &str, v: i64) {
        match self.gauges.get_mut(name) {
            Some(g) => *g = v,
            None => {
                self.gauges.insert(name.to_string(), v);
            }
        }
    }

    /// Raises the gauge `name` to `v` if `v` is larger (high-water mark).
    pub fn gauge_max(&mut self, name: &str, v: i64) {
        match self.gauges.get_mut(name) {
            Some(g) => *g = (*g).max(v),
            None => {
                self.gauges.insert(name.to_string(), v);
            }
        }
    }

    /// Reads the gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// Records `v` into the histogram `name` (created with
    /// [`DEFAULT_BUCKETS`] on first use).
    pub fn observe(&mut self, name: &str, v: u64) {
        self.observe_with(name, v, &DEFAULT_BUCKETS);
    }

    /// Records `v` into the histogram `name`, creating it with the given
    /// bucket bounds on first use (later calls ignore `bounds`).
    pub fn observe_with(&mut self, name: &str, v: u64, bounds: &[u64]) {
        match self.hists.get_mut(name) {
            Some(h) => h.observe(v),
            None => {
                let mut h = Histogram::with_bounds(bounds);
                h.observe(v);
                self.hists.insert(name.to_string(), h);
            }
        }
    }

    /// Reads the histogram `name`.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Installs (replacing) a pre-built histogram under `name` — used by
    /// components that accumulate a histogram inline and snapshot it into a
    /// registry on demand.
    pub fn set_histogram(&mut self, name: &str, h: Histogram) {
        self.hists.insert(name.to_string(), h);
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Folds every entry of `other` into `self` (counters add, gauges take
    /// the max, histograms require identical bounds and add bucket-wise).
    pub fn absorb(&mut self, other: &Metrics) {
        for (k, v) in &other.counters {
            self.add(k, *v);
        }
        for (k, v) in &other.gauges {
            self.gauge_max(k, *v);
        }
        for (k, h) in &other.hists {
            match self.hists.get_mut(k) {
                Some(mine) => {
                    assert_eq!(mine.bounds, h.bounds, "histogram {k:?} bounds differ");
                    for (c, o) in mine.counts.iter_mut().zip(&h.counts) {
                        *c += o;
                    }
                    mine.count += h.count;
                    mine.sum += h.sum;
                    mine.max = mine.max.max(h.max);
                }
                None => {
                    self.hists.insert(k.clone(), h.clone());
                }
            }
        }
    }

    /// Renders the registry as sorted `(metric, value)` rows: one row per
    /// counter and gauge, and `count` / `mean` / `p99` / `max` rows per
    /// histogram.
    pub fn rows(&self) -> Vec<(String, String)> {
        let mut rows = Vec::new();
        for (k, v) in &self.counters {
            rows.push((k.clone(), v.to_string()));
        }
        for (k, v) in &self.gauges {
            rows.push((k.clone(), v.to_string()));
        }
        for (k, h) in &self.hists {
            rows.push((format!("{k}.count"), h.count().to_string()));
            rows.push((format!("{k}.mean"), format!("{:.2}", h.mean())));
            rows.push((format!("{k}.p99"), h.quantile(0.99).to_string()));
            rows.push((format!("{k}.max"), h.max().to_string()));
        }
        rows.sort();
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let mut m = Metrics::new();
        assert!(m.is_empty());
        m.inc("a");
        m.add("a", 4);
        m.gauge_set("g", 3);
        m.gauge_max("g", 1);
        m.gauge_max("g", 7);
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.gauge("g"), Some(7));
        assert!(!m.is_empty());
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::with_bounds(&[1, 4, 16]);
        for v in [0, 1, 2, 5, 100] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 108);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 21.6).abs() < 1e-9);
        let buckets: Vec<(u64, u64)> = h.buckets().collect();
        assert_eq!(buckets, vec![(1, 2), (4, 1), (16, 1), (u64::MAX, 1)]);
    }

    #[test]
    fn quantile_upper_estimates() {
        let mut h = Histogram::with_bounds(&[1, 2, 4, 8]);
        for _ in 0..99 {
            h.observe(1);
        }
        h.observe(100);
        assert_eq!(h.quantile(0.5), 1);
        assert_eq!(h.quantile(0.99), 1);
        // The overflow bucket has no bound: the max is the estimate.
        assert_eq!(h.quantile(1.0), 100);
        assert_eq!(Histogram::with_bounds(&[1]).quantile(0.5), 0);
    }

    #[test]
    fn quantile_edge_cases() {
        // Empty histogram: every quantile is 0 regardless of q.
        let empty = Histogram::with_bounds(&[1, 2, 4]);
        assert_eq!(empty.quantile(0.0), 0);
        assert_eq!(empty.quantile(1.0), 0);

        // q = 0.0 needs zero observations, so the first bucket bound —
        // even an empty one — already satisfies it.
        let mut h = Histogram::with_bounds(&[1, 2, 4]);
        h.observe(4);
        assert_eq!(h.quantile(0.0), 1);
        // q = 1.0 must cover every observation.
        assert_eq!(h.quantile(1.0), 4);

        // Single finite bucket: the bound caps at the max, and the
        // overflow bucket reports the max.
        let mut single = Histogram::with_bounds(&[10]);
        single.observe(3);
        assert_eq!(single.quantile(0.5), 3);
        assert_eq!(single.quantile(1.0), 3);
        single.observe(99);
        assert_eq!(single.quantile(1.0), 99);
    }

    #[test]
    #[should_panic(expected = "quantile out of [0, 1]")]
    fn quantile_rejects_out_of_range() {
        let _ = Histogram::with_bounds(&[1]).quantile(1.5);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn bad_bounds_rejected() {
        let _ = Histogram::with_bounds(&[2, 2]);
    }

    #[test]
    fn observe_creates_default_histogram() {
        let mut m = Metrics::new();
        m.observe("lat", 3);
        m.observe("lat", 5000); // overflow bucket
        let h = m.histogram("lat").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 5000);
    }

    #[test]
    fn absorb_folds_everything() {
        let mut a = Metrics::new();
        a.add("c", 1);
        a.gauge_set("g", 2);
        a.observe("h", 1);
        let mut b = Metrics::new();
        b.add("c", 2);
        b.gauge_set("g", 9);
        b.observe("h", 3);
        b.observe("only_b", 7);
        a.absorb(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.gauge("g"), Some(9));
        assert_eq!(a.histogram("h").unwrap().count(), 2);
        assert_eq!(a.histogram("only_b").unwrap().count(), 1);
    }

    #[test]
    #[should_panic(expected = "bounds differ")]
    fn absorb_rejects_mismatched_histogram_bounds() {
        let mut a = Metrics::new();
        a.observe_with("h", 1, &[1, 2, 4]);
        let mut b = Metrics::new();
        b.observe_with("h", 1, &[1, 2, 8]);
        a.absorb(&b);
    }

    #[test]
    fn rows_are_sorted_and_complete() {
        let mut m = Metrics::new();
        m.inc("z.count");
        m.gauge_set("a.depth", 4);
        m.observe("m.delay", 2);
        let rows = m.rows();
        let names: Vec<&str> = rows.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert!(names.contains(&"m.delay.mean"));
        assert!(names.contains(&"m.delay.p99"));
    }
}
