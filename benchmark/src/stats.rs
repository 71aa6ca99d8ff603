//! Samples, their summaries, and the metric catalogue `BENCHMARK.json`
//! declares.

/// The end-to-end metrics, measured with tracing off, as `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("jobs_per_s", "jobs/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("energy_over_omega_c", "ratio"),
];

/// The per-layer metrics of the traced pass, as `(name, unit)`. A layer a
/// workload never calls reads 0 on it.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("workloads.generate_s", "s"),
    ("online.provision_s", "s"),
    ("core.omega_c_s", "s"),
    ("engine.build_s", "s"),
    ("engine.advance_s", "s"),
    ("engine.stepping_s", "s"),
    ("engine.merge_s", "s"),
    ("engine.finish_s", "s"),
    ("engine.query_s", "s"),
    ("engine.rounds", "count"),
    ("engine.events", "count"),
    ("engine.inject_ns", "ns"),
    ("online.replacements", "count"),
    ("online.failed_replacements", "count"),
    ("net.messages", "count"),
    ("net.diffusions", "count"),
    ("obs.cmvb_encode_s", "s"),
    ("obs.cmvb_bytes_per_event", "B/event"),
    ("obs.jsonl_encode_s", "s"),
    ("obs.jsonl_bytes_per_event", "B/event"),
    ("obs.check_s", "s"),
    ("obs.to_json_s", "s"),
    ("core.omega_star_s", "s"),
    ("core.omega_star_steps", "count"),
    ("serve.inject_p50_us", "us"),
    ("serve.inject_p99_us", "us"),
    ("serve.advance_p50_ms", "ms"),
    ("serve.trace_fetch_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Median and quartiles of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// Summarizes `samples`; the quartiles follow the default (exclusive)
/// method of Python's `statistics.quantiles(data, n=4)`.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "a metric needs at least one sample");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    let quartile = |i: usize| {
        if n == 1 {
            return v[0];
        }
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        median,
        q1: quartile(1),
        q3: quartile(3),
        n,
    }
}

/// The `p`-th percentile (0–100) by the nearest-rank method.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    assert!(
        !samples.is_empty(),
        "a percentile needs at least one sample"
    );
    samples.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// One metric's samples.
#[derive(Debug, Clone)]
pub struct Row {
    pub name: &'static str,
    pub unit: &'static str,
    pub samples: Vec<f64>,
}

/// Every metric one workload produced, in the order first recorded.
#[derive(Debug, Default)]
pub struct Report {
    rows: Vec<Row>,
}

impl Report {
    /// Appends one sample of `name`.
    pub fn push(&mut self, name: &'static str, unit: &'static str, sample: f64) {
        match self.rows.iter_mut().find(|r| r.name == name) {
            Some(row) => row.samples.push(sample),
            None => self.rows.push(Row {
                name,
                unit,
                samples: vec![sample],
            }),
        }
    }

    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// The median of `name`, or 0 when nothing recorded it.
    pub fn median(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .find(|r| r.name == name && !r.samples.is_empty())
            .map_or(0.0, |r| summarize(&r.samples).median)
    }
}

/// Renders `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a measured value as a JSON number with all its digits.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert_eq!(summarize(&[4.0]).q3, 4.0);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(percentile(&mut [7.0], 99.0), 7.0);
    }
}
