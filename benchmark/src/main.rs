//! The cmvrp benchmark: four workloads driven through the real `cmvrp`
//! binary with tracing off (end-to-end metrics), or split layer by layer by
//! an in-process traced pass (per-layer metrics). See README.md.
//!
//! ```text
//! bash benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! Runs `<target>/release/cmvrp`, where `<target>` is `$CARGO_TARGET_DIR`
//! or `target`. Prints one `metric workload value unit` line per metric,
//! then one JSON line `{"correct", "attempted", "failed", "metrics"}`;
//! writes `results.json` (and, traced, `spans.jsonl`) per workload under
//! `<target>/benchmark/`. Exits 1 when a correctness gate fails and 2 when
//! the benchmark cannot run.

mod drive;
mod stats;
mod sys;
mod traced;
mod workloads;

use cmvrp_bench::harness::{fmt_ns, Harness};
use cmvrp_obs::{Event, JsonlSink, Sink};
use stats::{json_num, json_str, summarize, Report, END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::{Batch, Encoding, Live, Plan, Workload, WORKLOADS};

/// Timed runs (or sessions, or traced passes) a workload makes at least,
/// however short `--seconds` is.
const MIN_RUNS: usize = 3;

#[derive(Debug, Clone)]
struct Config {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    cmvrp: PathBuf,
    out: PathBuf,
    /// Logical CPUs of the host.
    host_cpus: usize,
}

/// The build directory: `CARGO_TARGET_DIR` (relative to `root` when
/// relative), else `root/target`.
fn target_dir(root: &Path) -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    }
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let target = target_dir(Path::new("."));
    let mut cfg = Config {
        workloads: WORKLOADS.iter().collect(),
        seed: 7,
        seconds: 20.0,
        trace: false,
        smoke: false,
        cmvrp: target.join("release").join("cmvrp"),
        out: target.join("benchmark"),
        host_cpus: Harness::host_cpus(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--smoke" {
            cfg.smoke = true;
            continue;
        }
        let (key, value) = match arg.split_once('=') {
            Some((k, v)) => (k, v.to_string()),
            None => (
                arg.as_str(),
                it.next()
                    .ok_or_else(|| format!("{arg} needs a value"))?
                    .clone(),
            ),
        };
        let bad = |what: &str| format!("bad {what} {value:?}");
        match key {
            "--workload" => {
                let w = WORKLOADS.iter().find(|w| w.name == value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!(
                        "unknown workload {value:?}; workloads: {}",
                        names.join(", ")
                    )
                })?;
                cfg.workloads = vec![w];
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|_| bad("duration"))?;
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("--trace value (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown option {arg:?}")),
        }
    }
    Ok(cfg)
}

/// Correctness bookkeeping. `attempted` and `failed` count jobs: a job
/// fails when any gate on the run, session or traced pass that served it
/// fails, so it counts once however many of those gates fail.
#[derive(Debug, Default)]
struct Gates {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Gates {
    /// Names a failed gate; returns whether the gate passed.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.failures.push(what());
        }
        ok
    }

    /// Counts a run of `jobs` jobs, failed unless all its gates `passed`.
    fn tally(&mut self, jobs: u64, passed: bool) {
        self.attempted += jobs;
        if !passed {
            self.failed += jobs;
        }
    }
}

/// Everything one workload measured.
#[derive(Debug, Default)]
struct Outcome {
    report: Report,
    gates: Gates,
    /// Jobs one run attempts.
    jobs: u64,
    spans: Vec<Event>,
    /// Traced-pass durations, for the tracing overhead.
    traced_walls: Vec<f64>,
}

impl Outcome {
    fn add_pass(&mut self, pass: traced::Pass) {
        for (name, value) in pass.layers {
            let unit = unit_of(name);
            self.report.push(name, unit, value);
        }
        self.traced_walls.push(pass.wall_s);
        self.spans.extend_from_slice(pass.ledger.spans());
    }

    /// `trace.overhead`: the traced pass against the untraced median.
    fn overhead(&mut self, untraced: &[f64]) {
        if !self.traced_walls.is_empty() && !untraced.is_empty() {
            let traced = summarize(&self.traced_walls).median;
            let overhead = traced / summarize(untraced).median - 1.0;
            self.report.push("trace.overhead", "ratio", overhead);
        }
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |&(_, unit)| unit)
}

/// What a batch run printed that the gates and metrics read.
#[derive(Debug, Default)]
struct Printed {
    served: Option<(u64, u64)>,
    max_energy: Option<u64>,
    omega_c: Option<String>,
    omega_star: Option<String>,
    checked: bool,
}

impl Printed {
    fn parse(stdout: &str, report: bool) -> Printed {
        let after = |prefix: &str| {
            stdout
                .lines()
                .find_map(|l| l.strip_prefix(prefix))
                .map(str::trim)
        };
        // `scenario run` prints a table: `| quantity | value | vs bound |`.
        let cell = |label: &str| {
            stdout.lines().find_map(|l| {
                let mut cells = l.split('|').map(str::trim).skip(1);
                (cells.next()? == label).then(|| cells.next()).flatten()
            })
        };
        let (served, max_energy, omega_c) = if report {
            (
                cell("protocol served"),
                cell("protocol max energy"),
                cell("omega_c (Cor 2.2.7)"),
            )
        } else {
            (
                after("served: "),
                after("max energy used: "),
                after("omega_c: ").and_then(|s| s.split_whitespace().next()),
            )
        };
        Printed {
            served: served.and_then(|s| {
                let (a, b) = s.split_once('/')?;
                Some((a.parse().ok()?, b.parse().ok()?))
            }),
            max_energy: max_energy.and_then(|s| s.parse().ok()),
            omega_c: omega_c.map(str::to_string),
            omega_star: cell("omega* (Thm 1.4.1)").map(str::to_string),
            checked: stdout
                .lines()
                .any(|l| l.starts_with("check: ") && l.ends_with("all invariants hold")),
        }
    }

    /// The printed maximum energy over the printed ω_c.
    fn energy_over_omega_c(&self) -> Option<f64> {
        let omega_c = self.omega_c.as_deref()?;
        let omega_c = match omega_c.split_once('/') {
            Some((n, d)) => n.parse::<f64>().ok()? / d.parse::<f64>().ok()?,
            None => omega_c.parse().ok()?,
        };
        Some(self.max_energy? as f64 / omega_c)
    }
}

/// Gates one batch run's exit status and output; returns what it printed
/// and whether every gate passed.
fn gate_batch(gates: &mut Gates, b: &Batch, run: &drive::Invocation) -> (Printed, bool) {
    let printed = Printed::parse(&run.stdout, b.report);
    let jobs = b.jobs;
    let mut passed = gates.check(run.success, || "cmvrp exited non-zero".into());
    passed &= gates.check(printed.served == Some((jobs, jobs)), || {
        format!("expected served: {jobs}/{jobs}, got {:?}", printed.served)
    });
    if b.check {
        passed &= gates.check(printed.checked, || {
            "no `check: ... all invariants hold` line".into()
        });
    }
    passed &= gates.check(printed.energy_over_omega_c().is_some(), || {
        "no max energy or omega_c printed".into()
    });
    (printed, passed)
}

/// Gates a traced pass against the CLI run it replays; returns whether
/// every gate passed.
fn gate_pass(
    gates: &mut Gates,
    b: &Batch,
    printed: &Printed,
    pass: &traced::Pass,
    traced: &Path,
) -> bool {
    let mut passed = true;
    if let Some((encoding, cli)) = &b.trace {
        let same = match (std::fs::read(cli), std::fs::read(traced)) {
            (Ok(a), Ok(b)) => a == b,
            _ => false,
        };
        passed &= gates.check(same, || {
            format!(
                "traced {encoding:?} bytes differ from the CLI's {}",
                cli.display()
            )
        });
    }
    passed &= gates.check(printed.omega_c.as_deref() == Some(&pass.omega_c), || {
        format!(
            "traced omega_c {} vs printed {:?}",
            pass.omega_c, printed.omega_c
        )
    });
    passed &= gates.check(printed.omega_star == pass.omega_star, || {
        format!(
            "traced omega* {:?} vs printed {:?}",
            pass.omega_star, printed.omega_star
        )
    });
    if b.check {
        passed &= gates.check(pass.check_clean == Some(true), || {
            "the traced TraceChecker found violations".into()
        });
    }
    passed &= gates.check((pass.served, pass.unserved) == (b.jobs, 0), || {
        format!("traced pass served {}/{}", pass.served, b.jobs)
    });
    passed
}

/// Whether a measuring loop that started at `start` and made `runs` runs
/// is done: one run in a smoke test, else `seconds` and [`MIN_RUNS`].
fn done(start: Instant, runs: usize, cfg: &Config, seconds: f64) -> bool {
    runs > 0 && (cfg.smoke || (runs >= MIN_RUNS && start.elapsed().as_secs_f64() >= seconds))
}

fn run_batch(cfg: &Config, b: &Batch, dir: &Path) -> Result<Outcome, String> {
    let mut out = Outcome {
        jobs: b.jobs,
        ..Outcome::default()
    };
    let args = b.args();
    let traced_out = dir.join(match &b.trace {
        Some((Encoding::Cmvb, _)) => "traced.bin",
        Some((Encoding::Jsonl, _)) => "traced.jsonl",
        None => "traced",
    });
    if !cfg.smoke {
        let warmup = drive::invoke(&cfg.cmvrp, &args)?;
        let (_, passed) = gate_batch(&mut out.gates, b, &warmup);
        out.gates.tally(b.jobs, passed);
    }
    let start = Instant::now();
    let mut walls = Vec::new();
    while !done(start, walls.len(), cfg, cfg.seconds) {
        // The probe, the run and the traced pass all serve the same jobs.
        let mut passed = true;
        if !cfg.trace {
            let probe = drive::invoke(&cfg.cmvrp, &b.probe_args())?;
            passed &= out
                .gates
                .check(probe.success, || "setup probe exited non-zero".into());
            out.report.push("setup_s", "s", probe.wall_s);
        }
        let run = drive::invoke(&cfg.cmvrp, &args)?;
        let (printed, run_passed) = gate_batch(&mut out.gates, b, &run);
        passed &= run_passed;
        walls.push(run.wall_s);
        if cfg.trace {
            let pass = traced::batch(b, &traced_out)?;
            passed &= gate_pass(&mut out.gates, b, &printed, &pass, &traced_out);
            out.add_pass(pass);
        } else {
            out.report
                .push("jobs_per_s", "jobs/s", b.jobs as f64 / run.wall_s);
            out.report.push("peak_rss_mb", "MiB", run.peak_rss_mb);
            if let Some(ratio) = printed.energy_over_omega_c() {
                out.report.push("energy_over_omega_c", "ratio", ratio);
            }
        }
        out.gates.tally(b.jobs, passed);
    }
    out.overhead(&walls);
    eprintln!(
        "{} runs, median {} per run",
        walls.len(),
        fmt_ns(summarize(&walls).median * 1e9)
    );
    Ok(out)
}

fn run_live(cfg: &Config, l: &Live) -> Result<Outcome, String> {
    let jobs = l.jobs.len() as u64;
    let mut out = Outcome {
        jobs,
        ..Outcome::default()
    };
    // Traced, half the time goes to wire sessions and half to passes.
    let seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let serve = if cfg.smoke {
        drive::serve(&cfg.cmvrp, l, 0, 1, 0.0)?
    } else {
        drive::serve(&cfg.cmvrp, l, 1, MIN_RUNS, seconds)?
    };
    // A failed server fails every session it served.
    let server_passed = out
        .gates
        .check(serve.server_ok, || "cmvrp serve exited non-zero".into())
        & out.gates.check(
            serve.server_stdout.contains("served 1 connection(s)"),
            || format!("unexpected server summary {:?}", serve.server_stdout),
        );
    for s in serve.warmups.iter().chain(&serve.sessions) {
        let mut passed = server_passed;
        passed &= out.gates.check(s.rejected == 0, || {
            format!("{} replies were not ok", s.rejected)
        });
        passed &= out.gates.check((s.served, s.unserved) == (jobs, 0), || {
            format!("close served {}/{jobs}", s.served)
        });
        passed &= out.gates.check(s.trace_lines == s.events, || {
            format!("trace lines {} vs close events {}", s.trace_lines, s.events)
        });
        out.gates.tally(jobs, passed);
    }
    let (mut inject_us, mut advance_ms) = (Vec::new(), Vec::new());
    let mut walls = Vec::new();
    for s in &serve.sessions {
        inject_us.extend_from_slice(&s.inject_us);
        advance_ms.extend_from_slice(&s.advance_ms);
        walls.push(s.wall_s);
        out.report.push("serve.trace_fetch_s", "s", s.trace_s);
        if !cfg.trace {
            out.report
                .push("jobs_per_s", "jobs/s", jobs as f64 / s.wall_s);
            for &open_s in &s.open_s {
                out.report.push("setup_s", "s", open_s);
            }
            out.report.push(
                "energy_over_omega_c",
                "ratio",
                s.max_energy as f64 / l.omega_c,
            );
        }
    }
    if !cfg.trace {
        out.report.push("peak_rss_mb", "MiB", serve.peak_rss_mb);
    }
    if !inject_us.is_empty() {
        let p50 = stats::percentile(&mut inject_us, 50.0);
        let p99 = stats::percentile(&mut inject_us, 99.0);
        out.report.push("serve.inject_p50_us", "us", p50);
        out.report.push("serve.inject_p99_us", "us", p99);
    }
    if !advance_ms.is_empty() {
        let p50 = stats::percentile(&mut advance_ms, 50.0);
        out.report.push("serve.advance_p50_ms", "ms", p50);
    }
    if cfg.trace {
        let wire_events = serve.sessions.first().map_or(0, |s| s.events);
        let start = Instant::now();
        let mut passes = 0;
        while !done(start, passes, cfg, seconds) {
            let pass = traced::live(l)?;
            let passed = out.gates.check(pass.events == wire_events, || {
                format!(
                    "traced events {} vs wire close events {wire_events}",
                    pass.events
                )
            }) & out
                .gates
                .check((pass.served, pass.unserved) == (jobs, 0), || {
                    format!("traced pass served {}/{jobs}", pass.served)
                });
            out.gates.tally(jobs, passed);
            out.add_pass(pass);
            passes += 1;
        }
    }
    out.overhead(&walls);
    eprintln!(
        "{} sessions, median {} per session",
        walls.len(),
        fmt_ns(summarize(&walls).median * 1e9)
    );
    Ok(out)
}

fn run_workload(cfg: &Config, w: &Workload) -> Result<Outcome, String> {
    let dir = cfg.out.join(w.name);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    eprint!("{}: ", w.name);
    let mut out = match w.plan(cfg.seed, cfg.smoke, &dir)? {
        Plan::Batch(b) => run_batch(cfg, &b, &dir)?,
        Plan::Live(l) => run_live(cfg, &l)?,
    };
    // A layer the workload never calls reads 0.
    let catalogue = if cfg.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    for &(name, unit) in catalogue {
        if out.report.rows().iter().all(|r| r.name != name) {
            out.report.push(name, unit, 0.0);
        }
    }
    let failed_frac = out.gates.failed as f64 / out.gates.attempted.max(1) as f64;
    out.report.push("failed_frac", "fraction", failed_frac);
    for failure in &out.gates.failures {
        eprintln!("{}: FAILED: {failure}", w.name);
    }
    write_results(cfg, w, &out, &dir)?;
    Ok(out)
}

/// Writes `results.json` (run context, every metric's median, quartiles
/// and sample count, the gate failures) and, traced, `spans.jsonl`.
fn write_results(cfg: &Config, w: &Workload, out: &Outcome, dir: &Path) -> Result<(), String> {
    let mut json = format!(
        "{{\n  \"workload\": {},\n  \"why\": {},\n  \"seed\": {},\n  \"host_cpus\": {},\n  \"trace\": {},\n  \
         \"smoke\": {},\n  \"seconds\": {},\n  \"jobs_per_run\": {},\n  \"attempted\": {},\n  \
         \"failed\": {},\n  \"failures\": [",
        json_str(w.name),
        json_str(w.why),
        cfg.seed,
        cfg.host_cpus,
        cfg.trace,
        cfg.smoke,
        json_num(cfg.seconds),
        out.jobs,
        out.gates.attempted,
        out.gates.failed,
    );
    let failures: Vec<String> = out.gates.failures.iter().map(|f| json_str(f)).collect();
    json.push_str(&failures.join(", "));
    json.push_str("],\n  \"metrics\": {");
    for (i, row) in out.report.rows().iter().enumerate() {
        let s = summarize(&row.samples);
        let _ = write!(
            json,
            "{}\n    {}: {{\"unit\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"samples\": {}}}",
            if i == 0 { "" } else { "," },
            json_str(row.name),
            json_str(row.unit),
            json_num(s.median),
            json_num(s.q1),
            json_num(s.q3),
            s.n
        );
    }
    json.push_str("\n  }\n}\n");
    let path = dir.join("results.json");
    std::fs::write(&path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    if cfg.trace {
        let path = dir.join("spans.jsonl");
        let mut sink = JsonlSink::create(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        for span in &out.spans {
            sink.record(span);
        }
        sink.finish()
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}

/// The last output line: gates and the declared metrics. With several
/// workloads, metric keys are prefixed `workload/`.
fn result_line(cfg: &Config, outcomes: &[(&Workload, Outcome)]) -> String {
    let catalogue = if cfg.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let failed: u64 = outcomes.iter().map(|(_, o)| o.gates.failed).sum();
    let attempted: u64 = outcomes.iter().map(|(_, o)| o.gates.attempted).sum();
    let mut metrics = Vec::new();
    for (w, out) in outcomes {
        let prefix = if outcomes.len() > 1 {
            format!("{}/", w.name)
        } else {
            String::new()
        };
        for &(name, unit) in catalogue {
            metrics.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&format!("{prefix}{name}")),
                json_num(out.report.median(name)),
                json_str(unit)
            ));
        }
    }
    let correct = outcomes.iter().all(|(_, o)| o.gates.failures.is_empty());
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if !cfg.cmvrp.is_file() {
        eprintln!(
            "error: {} not found; build it with `cargo build --release --offline --bin cmvrp`, \
             or run `bash benchmark/run.sh`, which builds it",
            cfg.cmvrp.display()
        );
        std::process::exit(2);
    }
    let mut outcomes = Vec::new();
    for &w in &cfg.workloads {
        match run_workload(&cfg, w) {
            Ok(out) => {
                for row in out.report.rows() {
                    let median = summarize(&row.samples).median;
                    println!("{} {} {} {}", row.name, w.name, median, row.unit);
                }
                outcomes.push((w, out));
            }
            Err(e) => {
                eprintln!("error: {}: {e}", w.name);
                std::process::exit(2);
            }
        }
    }
    println!("{}", result_line(&cfg, &outcomes));
    if outcomes.iter().any(|(_, o)| !o.gates.failures.is_empty()) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The repository root: the parent of this package.
    fn root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("the benchmark lives inside the repository")
            .to_path_buf()
    }

    #[test]
    fn benchmark_json_declares_the_catalogue() {
        let declared = std::fs::read_to_string(root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(declared.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let units = declared.matches("\"unit\":").count();
        assert_eq!(units, END_TO_END.len() + PER_LAYER.len());
        for w in &WORKLOADS {
            let entry = format!("\"name\": \"{}\", \"why\": \"{}\"", w.name, w.why);
            assert!(declared.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn a_run_failing_several_gates_counts_its_jobs_once() {
        let b = Batch {
            scenario: PathBuf::from("scenario.toml"),
            demand: cmvrp_workloads::WorkloadConfig::Point { grid: 3, demand: 5 },
            arrivals: workloads::Arrivals::Shuffled { seed: 0 },
            seed: 0,
            jobs: 5,
            report: false,
            check: true,
            trace: None,
        };
        let run = drive::Invocation {
            wall_s: 1.0,
            peak_rss_mb: 1.0,
            success: false,
            stdout: "served: 3/5\n".into(),
        };
        let mut gates = Gates::default();
        let (_, passed) = gate_batch(&mut gates, &b, &run);
        gates.tally(b.jobs, passed);
        // Exit status, served count, check line and energy all fail.
        assert_eq!(gates.failures.len(), 4, "{:?}", gates.failures);
        assert_eq!((gates.attempted, gates.failed), (5, 5));
    }

    #[test]
    fn release_profile_matches_the_repository() {
        let profile = |dir: &Path| {
            let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).expect("a manifest");
            manifest
                .split("\n[")
                .find_map(|section| section.strip_prefix("profile.release]"))
                .map(|body| body.trim().to_string())
        };
        let own = profile(Path::new(env!("CARGO_MANIFEST_DIR")));
        assert!(own.is_some(), "the benchmark sets [profile.release]");
        assert_eq!(own, profile(&root()));
    }

    /// Runs every workload shrunk about 100-fold, untraced and traced, on
    /// two seeds, against the built `cmvrp`.
    #[test]
    fn smoke_runs_pass_their_gates_and_print_every_metric() {
        let target = target_dir(&root());
        let cmvrp = target.join("release").join("cmvrp");
        assert!(
            cmvrp.is_file(),
            "{} is missing; build it first: cargo build --release --offline --bin cmvrp",
            cmvrp.display()
        );
        let mut jobs = Vec::new();
        for seed in [7, 8] {
            for trace in [false, true] {
                let cfg = Config {
                    workloads: WORKLOADS.iter().collect(),
                    seed,
                    seconds: 0.0,
                    trace,
                    smoke: true,
                    cmvrp: cmvrp.clone(),
                    out: target
                        .join("benchmark-smoke")
                        .join(format!("{seed}-{trace}")),
                    host_cpus: Harness::host_cpus(),
                };
                let mut outcomes = Vec::new();
                for &w in &cfg.workloads {
                    let out = run_workload(&cfg, w).expect("the smoke run completes");
                    assert!(out.gates.failures.is_empty(), "{}: {:?}", w.name, out.gates);
                    let catalogue = if trace {
                        &PER_LAYER[..]
                    } else {
                        &END_TO_END[..]
                    };
                    for &(name, unit) in catalogue {
                        let row = out.report.rows().iter().find(|r| r.name == name);
                        assert_eq!(row.map(|r| r.unit), Some(unit), "{}: {name}", w.name);
                    }
                    jobs.push((seed, w.name, out.jobs));
                    outcomes.push((w, out));
                }
                let line = result_line(&cfg, &outcomes);
                assert!(line.starts_with("{\"correct\": true, "), "{line}");
            }
        }
        let counts = |seed: u64| -> Vec<(&str, u64)> {
            jobs.iter()
                .filter(|j| j.0 == seed)
                .map(|&(_, w, n)| (w, n))
                .collect()
        };
        assert_eq!(counts(7), counts(8));
    }

    #[test]
    fn options_take_either_spelling() {
        let args: Vec<String> = ["--workload=live-hotspot", "--seed", "9", "--trace", "1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let cfg = parse_args(&args).expect("valid options");
        assert_eq!(cfg.workloads.len(), 1);
        assert_eq!((cfg.seed, cfg.trace), (9, true));
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
    }

    #[test]
    fn printed_reports_parse() {
        let simulate = "check: 12 events validated, all invariants hold\n\
                        served: 40/40\nmax energy used: 9\nomega_c: 3/2 (cube side 2)\n";
        let p = Printed::parse(simulate, false);
        assert_eq!(p.served, Some((40, 40)));
        assert!(p.checked);
        assert_eq!(p.energy_over_omega_c(), Some(6.0));
        let table = "| omega_c (Cor 2.2.7) | 6 | - |\n| omega* (Thm 1.4.1) | 10 | - |\n\
                     | protocol max energy | 181 | 18.10x |\n| protocol served | 20/20 | - |\n";
        let p = Printed::parse(table, true);
        assert_eq!(p.served, Some((20, 20)));
        assert_eq!(p.omega_star.as_deref(), Some("10"));
        assert_eq!(p.energy_over_omega_c(), Some(181.0 / 6.0));
    }
}
