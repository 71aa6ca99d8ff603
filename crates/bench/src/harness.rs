//! A tiny self-contained benchmark harness (`std::time::Instant` only).
//!
//! The workspace builds hermetically — no registry access — so the
//! criterion dependency was replaced by this module. Bench targets keep
//! `harness = false` and drive a [`Harness`] from `main`:
//!
//! ```no_run
//! use cmvrp_bench::harness::Harness;
//! use std::hint::black_box;
//!
//! let mut h = Harness::start("my_group");
//! h.bench("square/64", || {
//!     black_box((0..64u64).map(|x| x * x).sum::<u64>());
//! });
//! h.finish();
//! ```
//!
//! Supported command-line arguments (everything else is ignored so
//! `cargo bench`/`cargo test` glue flags pass through): `--test` or
//! `--quick` runs every closure once without timing, the first bare
//! argument is a substring filter on bench names, and `--baseline=PATH`
//! names a snapshot another build of the same bench wrote (see
//! [`Harness::baseline_notes`]).
//!
//! Methodology: each bench is warmed up, then the iteration count is
//! calibrated so one sample takes roughly [`SAMPLE_TARGET_MS`]; the
//! reported numbers are the per-iteration mean, minimum, and standard
//! deviation across the samples.

use cmvrp_obs::json::quote;
use cmvrp_util::Table;
use std::time::Instant;

/// Target wall-clock duration of one measured sample, in milliseconds.
pub const SAMPLE_TARGET_MS: u64 = 25;

/// Default number of measured samples per bench.
pub const DEFAULT_SAMPLES: usize = 12;

/// One bench's aggregated measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Bench name within the group.
    pub name: String,
    /// Iterations per sample after calibration.
    pub iters_per_sample: u64,
    /// Mean nanoseconds per iteration.
    pub mean_ns: f64,
    /// Fastest sample's nanoseconds per iteration.
    pub min_ns: f64,
    /// Standard deviation of the per-sample means, in nanoseconds.
    pub stddev_ns: f64,
    /// Work items (events, jobs, …) processed by one iteration; `0` when
    /// the bench has no natural item count. Declared via
    /// [`Harness::bench_with_items`].
    pub items_per_iter: u64,
}

impl Measurement {
    /// Items per second at the fastest sample (`None` when the bench
    /// declared no item count).
    pub fn items_per_sec(&self) -> Option<f64> {
        (self.items_per_iter > 0).then(|| self.items_per_iter as f64 / (self.min_ns / 1e9))
    }
}

/// Peak resident set size of this process in kilobytes (`VmHWM` from
/// `/proc/self/status`). `None` on platforms without procfs — callers
/// should report "n/a" rather than fail.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Formats a nanosecond quantity with a human unit.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// A benchmark group: collects measurements and prints them on
/// [`Harness::finish`].
#[derive(Debug)]
pub struct Harness {
    group: String,
    filter: Option<String>,
    baseline: Option<String>,
    quick: bool,
    samples: usize,
    results: Vec<Measurement>,
}

impl Harness {
    /// Creates a harness for `group`, reading flags from `std::env::args`.
    pub fn start(group: &str) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Harness::with_args(group, &args)
    }

    /// Creates a harness with explicit arguments (testable entry point).
    pub fn with_args(group: &str, args: &[String]) -> Self {
        let mut quick = false;
        let mut filter = None;
        let mut baseline = None;
        for a in args {
            if let Some(path) = a.strip_prefix("--baseline=") {
                baseline = Some(path.to_string());
                continue;
            }
            match a.as_str() {
                "--test" | "--quick" => quick = true,
                s if s.starts_with('-') => {} // cargo glue flags: ignore
                s => {
                    if filter.is_none() {
                        filter = Some(s.to_string());
                    }
                }
            }
        }
        Harness {
            group: group.to_string(),
            filter,
            baseline,
            quick,
            samples: DEFAULT_SAMPLES,
            results: Vec::new(),
        }
    }

    /// Overrides the number of measured samples (for very slow benches).
    pub fn set_samples(&mut self, samples: usize) {
        assert!(samples > 0, "need at least one sample");
        self.samples = samples;
    }

    /// Logical CPUs available to this process, per
    /// [`std::thread::available_parallelism`]; 1 when the host refuses to
    /// say. Recorded into every bench row so a snapshot pulled out of
    /// context still names the hardware it was measured on.
    pub fn host_cpus() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Prints a stderr warning when a bench is about to run `workers`
    /// worker threads on fewer logical CPUs — the numbers it produces
    /// then measure scheduling overhead, not parallel speedup.
    pub fn warn_if_oversubscribed(&self, workers: usize) {
        let cpus = Self::host_cpus();
        if workers > cpus {
            eprintln!(
                "{}: warning: benching {workers} workers on {cpus} logical \
                 CPU(s) — oversubscribed worker counts measure scheduling \
                 overhead, not parallel speedup",
                self.group
            );
        }
    }

    /// Whether `name` survives the command-line filter.
    fn selected(&self, name: &str) -> bool {
        match &self.filter {
            Some(f) => format!("{}/{}", self.group, name).contains(f.as_str()),
            None => true,
        }
    }

    /// Runs one bench. The closure is the body of a single iteration; wrap
    /// results in `std::hint::black_box` inside it.
    pub fn bench<F: FnMut()>(&mut self, name: &str, f: F) {
        self.bench_with_items(name, 0, f);
    }

    /// Runs one bench whose iteration processes `items_per_iter` work
    /// items (events, jobs, …); the report derives an items-per-second
    /// throughput from the fastest sample. `items_per_iter == 0` means
    /// "no natural item count" and reports wall-clock only.
    pub fn bench_with_items<F: FnMut()>(&mut self, name: &str, items_per_iter: u64, mut f: F) {
        if !self.selected(name) {
            return;
        }
        if self.quick {
            f();
            println!("{}/{}: ok (quick)", self.group, name);
            return;
        }
        // Warm up and calibrate: grow the iteration count until one batch
        // takes at least the sample target.
        let target_ns = SAMPLE_TARGET_MS as u128 * 1_000_000;
        let mut iters: u64 = 1;
        let per_iter_ns = loop {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            let elapsed = t.elapsed().as_nanos().max(1);
            if elapsed >= target_ns {
                break elapsed / iters as u128;
            }
            // Aim straight at the target with 50% headroom.
            let scale = (target_ns * 3 / 2) / elapsed;
            iters = iters.saturating_mul(scale.clamp(2, 100) as u64);
        };
        let iters_per_sample = (target_ns / per_iter_ns.max(1)).clamp(1, u64::MAX as u128) as u64;
        // Measure.
        let mut sample_means = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t = Instant::now();
            for _ in 0..iters_per_sample {
                f();
            }
            sample_means.push(t.elapsed().as_nanos() as f64 / iters_per_sample as f64);
        }
        let n = sample_means.len() as f64;
        let mean = sample_means.iter().sum::<f64>() / n;
        let min = sample_means.iter().copied().fold(f64::INFINITY, f64::min);
        let var = sample_means
            .iter()
            .map(|m| (m - mean) * (m - mean))
            .sum::<f64>()
            / n;
        self.results.push(Measurement {
            name: name.to_string(),
            iters_per_sample,
            mean_ns: mean,
            min_ns: min,
            stddev_ns: var.sqrt(),
            items_per_iter,
        });
    }

    /// The measurements recorded so far.
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }

    /// Notes pairing this run with the `--baseline=PATH` snapshot, when
    /// one was named: the snapshot's file name, then for every row both
    /// runs have, the baseline's fastest sample and `baseline / this`.
    /// Empty without `--baseline`; a snapshot that cannot be read is
    /// reported on stderr and yields no notes.
    pub fn baseline_notes(&self) -> Vec<(String, String)> {
        let Some(path) = &self.baseline else {
            return Vec::new();
        };
        let snapshot = match std::fs::read_to_string(path) {
            Ok(snapshot) => snapshot,
            Err(e) => {
                eprintln!("warning: cannot read baseline {path}: {e}");
                return Vec::new();
            }
        };
        let name = std::path::Path::new(path).file_name().unwrap_or_default();
        let mut notes = vec![("baseline".to_string(), name.to_string_lossy().into_owned())];
        for m in &self.results {
            let key = format!("\"name\": {}", quote(&m.name));
            let Some(line) = snapshot.lines().find(|l| l.contains(&key)) else {
                continue;
            };
            let Some(base) = line
                .split_once("\"min_ns\": ")
                .and_then(|(_, rest)| rest.split(',').next())
                .and_then(|v| v.trim().parse::<f64>().ok())
            else {
                continue;
            };
            notes.push((format!("{} baseline_min_ns", m.name), format!("{base:.1}")));
            notes.push((
                format!("{} speedup", m.name),
                format!("{:.2}x", base / m.min_ns),
            ));
        }
        notes
    }

    /// Whether the harness is in `--quick`/`--test` mode (runs everything
    /// once, records nothing).
    pub fn is_quick(&self) -> bool {
        self.quick
    }

    /// Renders the group's measurements as a JSON document (hand-rolled,
    /// like the rest of the workspace): `group`, free-form string `notes`,
    /// the process peak RSS, and one object per bench with the
    /// [`Measurement`] fields (plus a derived `items_per_sec` throughput
    /// for benches that declared an item count). The schema is
    /// append-only: existing fields keep their names and meanings.
    pub fn snapshot_json(&self, notes: &[(&str, String)]) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"group\": {},\n", quote(&self.group)));
        out.push_str("  \"notes\": {");
        for (i, (k, v)) in notes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {}", quote(k), quote(v)));
        }
        if !notes.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n");
        match peak_rss_kb() {
            Some(kb) => out.push_str(&format!("  \"peak_rss_kb\": {kb},\n")),
            None => out.push_str("  \"peak_rss_kb\": null,\n"),
        }
        out.push_str("  \"benches\": [");
        let host_cpus = Self::host_cpus();
        for (i, m) in self.results.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": {}, \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \
                 \"stddev_ns\": {:.1}, \"iters_per_sample\": {}, \
                 \"host_cpus\": {host_cpus}",
                quote(&m.name),
                m.mean_ns,
                m.min_ns,
                m.stddev_ns,
                m.iters_per_sample
            ));
            if let Some(rate) = m.items_per_sec() {
                out.push_str(&format!(
                    ", \"items_per_iter\": {}, \"items_per_sec\": {rate:.0}",
                    m.items_per_iter
                ));
            }
            out.push('}');
        }
        if !self.results.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Writes [`Harness::snapshot_json`] to `path`. A no-op in
    /// `--quick`/`--test` mode so `cargo test --benches` glue runs never
    /// overwrite a committed snapshot with empty results, and under a name
    /// filter (said on stderr) so a partial run never replaces the
    /// snapshot's other rows.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be written.
    pub fn write_snapshot(
        &self,
        path: impl AsRef<std::path::Path>,
        notes: &[(&str, String)],
    ) -> std::io::Result<()> {
        if self.quick {
            return Ok(());
        }
        if let Some(filter) = &self.filter {
            eprintln!(
                "{}: filter {filter:?} ran only some benches; not writing {}",
                self.group,
                path.as_ref().display()
            );
            return Ok(());
        }
        std::fs::write(path, self.snapshot_json(notes))
    }

    /// Prints the group's results as a table, with an items-per-second
    /// column for benches that declared an item count and the process
    /// peak RSS underneath.
    pub fn finish(self) {
        if self.quick {
            return;
        }
        let mut table = Table::new(vec!["bench", "mean", "min", "stddev", "items/s", "iters"]);
        for m in &self.results {
            table.row(vec![
                m.name.clone(),
                fmt_ns(m.mean_ns),
                fmt_ns(m.min_ns),
                fmt_ns(m.stddev_ns),
                match m.items_per_sec() {
                    Some(rate) => format!("{rate:.0}"),
                    None => "-".to_string(),
                },
                m.iters_per_sample.to_string(),
            ]);
        }
        println!("group: {}", self.group);
        println!("{table}");
        match peak_rss_kb() {
            Some(kb) => println!("peak rss: {:.1} MiB", kb as f64 / 1024.0),
            None => println!("peak rss: n/a"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_mode_runs_once_without_recording() {
        let mut h = Harness::with_args("g", &["--test".into()]);
        let mut runs = 0;
        h.bench("a", || runs += 1);
        assert_eq!(runs, 1);
        assert!(h.results().is_empty());
    }

    #[test]
    fn filter_selects_by_substring() {
        let mut h = Harness::with_args("g", &["--test".into(), "b/".into()]);
        let mut a = 0;
        let mut b = 0;
        h.bench("a/1", || a += 1);
        h.bench("b/1", || b += 1);
        assert_eq!((a, b), (0, 1));
    }

    #[test]
    fn measures_a_trivial_closure() {
        let mut h = Harness::with_args("g", &[]);
        h.set_samples(2);
        h.bench("spin", || {
            std::hint::black_box((0..100u64).sum::<u64>());
        });
        let m = &h.results()[0];
        assert!(m.mean_ns > 0.0);
        assert!(m.min_ns <= m.mean_ns);
        assert!(m.iters_per_sample >= 1);
    }

    #[test]
    fn snapshot_json_is_parseable_shape() {
        let mut h = Harness::with_args("g", &[]);
        h.set_samples(2);
        h.bench("a \"quoted\"", || {
            std::hint::black_box((0..10u64).sum::<u64>());
        });
        let json = h.snapshot_json(&[("note", "x\ny".to_string())]);
        assert!(json.contains("\"group\": \"g\""));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\\n"));
        assert!(json.contains("\"mean_ns\""));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn baseline_notes_pair_shared_rows() {
        let path = std::env::temp_dir().join("cmvrp_bench_baseline_notes.json");
        let mut base = Harness::with_args("g", &[]);
        base.results.push(Measurement {
            name: "a/1".into(),
            iters_per_sample: 1,
            mean_ns: 300.0,
            min_ns: 200.0,
            stddev_ns: 0.0,
            items_per_iter: 0,
        });
        std::fs::write(&path, base.snapshot_json(&[])).unwrap();
        let arg = format!("--baseline={}", path.display());
        let mut h = Harness::with_args("g", &[arg]);
        for (name, min_ns) in [("a/1", 100.0), ("b/1", 50.0)] {
            h.results.push(Measurement {
                name: name.into(),
                min_ns,
                ..base.results[0].clone()
            });
        }
        let notes = h.baseline_notes();
        let _ = std::fs::remove_file(&path);
        let want = [
            ("baseline", "cmvrp_bench_baseline_notes.json"),
            ("a/1 baseline_min_ns", "200.0"),
            ("a/1 speedup", "2.00x"),
        ];
        let want: Vec<(String, String)> = want
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        assert_eq!(notes, want);
        assert!(Harness::with_args("g", &[]).baseline_notes().is_empty());
    }

    #[test]
    fn quick_mode_skips_snapshot_write() {
        let h = Harness::with_args("g", &["--test".into()]);
        let path = std::env::temp_dir().join("cmvrp_bench_snapshot_should_not_exist.json");
        let _ = std::fs::remove_file(&path);
        h.write_snapshot(&path, &[]).unwrap();
        assert!(!path.exists());
    }

    #[test]
    fn filtered_run_skips_snapshot_write() {
        let mut h = Harness::with_args("g", &["keep".into()]);
        h.set_samples(2);
        h.bench("keep/1", || {
            std::hint::black_box(1u64);
        });
        let path = std::env::temp_dir().join("cmvrp_bench_filtered_snapshot_should_not_exist.json");
        let _ = std::fs::remove_file(&path);
        h.write_snapshot(&path, &[]).unwrap();
        assert!(!path.exists());
    }

    #[test]
    fn items_per_sec_derived_from_fastest_sample() {
        let mut h = Harness::with_args("g", &[]);
        h.set_samples(2);
        h.bench_with_items("sum/1000", 1000, || {
            std::hint::black_box((0..1000u64).sum::<u64>());
        });
        let m = &h.results()[0];
        assert_eq!(m.items_per_iter, 1000);
        let rate = m.items_per_sec().unwrap();
        assert!(rate > 0.0);
        assert!((rate - 1000.0 / (m.min_ns / 1e9)).abs() < 1.0);
        // The plain bench() path records no item count.
        h.bench("plain", || {
            std::hint::black_box(1u64);
        });
        assert_eq!(h.results()[1].items_per_iter, 0);
        assert!(h.results()[1].items_per_sec().is_none());
    }

    #[test]
    fn snapshot_includes_throughput_and_rss() {
        let mut h = Harness::with_args("g", &[]);
        h.set_samples(2);
        h.bench_with_items("a", 50, || {
            std::hint::black_box((0..50u64).sum::<u64>());
        });
        let json = h.snapshot_json(&[]);
        assert!(json.contains("\"items_per_iter\": 50"));
        assert!(json.contains("\"items_per_sec\": "));
        assert!(json.contains("\"peak_rss_kb\": "));
        assert!(json.contains(&format!("\"host_cpus\": {}", Harness::host_cpus())));
        assert!(Harness::host_cpus() >= 1);
    }

    #[test]
    fn peak_rss_reads_procfs_on_linux() {
        if cfg!(target_os = "linux") {
            let kb = peak_rss_kb().expect("VmHWM available on Linux");
            assert!(kb > 0);
        }
    }

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(12.0), "12.0 ns");
        assert_eq!(fmt_ns(12_500.0), "12.50 µs");
        assert_eq!(fmt_ns(12_500_000.0), "12.50 ms");
        assert_eq!(fmt_ns(2_500_000_000.0), "2.500 s");
    }
}
