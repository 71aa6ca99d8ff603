#![warn(missing_docs)]

//! Command-line interface for the CMVRP reproduction: the `cmvrp` binary.
//! `cmvrp help` lists every subcommand and flag; README.md walks through
//! them.
//!
//! Each subcommand is one row of `COMMANDS`: its words, its positional
//! arguments, its flags with their help text, the function that runs it,
//! and its usage text. One parser reads an argument list against its row,
//! so the usage screen, dispatch and every usage error ("needs", "unknown
//! option", "unexpected argument") come from the table. Valued flags are
//! written `--name=value` or `--name value`; a separated value that begins
//! with `--` is refused. The workspace takes no CLI dependencies;
//! [`run_with_status`] is the entry point. One module per command family
//! runs the rows: `offline` (`solve`, `show`, `sweep`, `experiment`,
//! `workloads`), `run` (`simulate`, `scenario`), `trace`, `ckpt` (`ckpt`,
//! `campaign`) and `serve`.
//!
//! Workloads are specified either inline as `shape:param=value,...`, e.g.
//! `point:grid=11,demand=60`, or as `@path.toml` naming a scenario file;
//! every place that takes a workload (simulate, campaign `workload =`
//! lines, the serve wire `open` op) accepts both through the shared
//! [`Scenario`] parser. Every trace-reading subcommand accepts both trace
//! encodings, sniffed by the binary format's magic bytes.

mod args;
mod ckpt;
mod offline;
mod run;
mod serve;
#[rustfmt::skip]
mod table;
mod trace;

use args::{Args, Command};
use cmvrp_scenario::Scenario;
use std::fmt::Write as _;
use table::{COMMANDS, WORKLOADS};

/// Errors surfaced to the user with exit code 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for UsageError {}

/// Any error, surfaced to the user by its text.
fn usage_error(e: impl ToString) -> UsageError {
    UsageError(e.to_string())
}

/// What a command returns: the text to print and the exit status.
type Outcome = Result<(String, i32), UsageError>;

/// The usage screen, rendered from [`COMMANDS`].
fn usage() -> String {
    let mut out = "cmvrp — Capacitated Multivehicle Routing Problem (Gao, 2008)\n\n".to_string();
    let commands = COMMANDS.iter().map(|c| {
        let opts = if c.flags.is_empty() { "" } else { " [opts]" };
        let choices = c.args.iter().filter_map(|a| a.choices);
        let choices: String = choices.map(|list| format!(" ({})", list())).collect();
        let synopsis = format!("cmvrp {}{}{opts}", c.name(), c.arg_names());
        (synopsis, format!("{}{choices}", c.about))
    });
    columns(&mut out, "USAGE", commands);
    out.push_str(WORKLOADS);
    for cmd in COMMANDS.iter().filter(|c| !c.flags.is_empty()) {
        let title = format!("{} OPTIONS", cmd.name().to_uppercase());
        let flags = cmd.flags.iter().map(|f| (f.0.into(), f.1.into()));
        columns(&mut out, &title, flags);
    }
    out.push_str("A valued option is written --name=VALUE or --name VALUE.\n");
    out
}

/// A titled section of two columns: each left cell padded to the widest,
/// each right cell wrapped to 54 columns under its first line.
fn columns(out: &mut String, title: &str, rows: impl Iterator<Item = (String, String)>) {
    let rows: Vec<(String, String)> = rows.collect();
    let width = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0) + 2;
    let _ = writeln!(out, "{title}:");
    for (left, right) in &rows {
        let (mut left, mut line) = (left.as_str(), String::new());
        for word in right.split(' ') {
            if !line.is_empty() && line.chars().count() + word.chars().count() >= 54 {
                let _ = writeln!(out, "  {left:width$}{line}");
                (left, line) = ("", String::new());
            }
            line = if line.is_empty() {
                word.into()
            } else {
                format!("{line} {word}")
            };
        }
        let _ = writeln!(out, "  {left:width$}{line}");
    }
    out.push('\n');
}

/// `rows` under `header` as a column-aligned text table.
fn table<const N: usize>(header: [&str; N], rows: impl IntoIterator<Item = [String; N]>) -> String {
    let mut table = cmvrp_util::Table::new(header);
    for row in rows {
        table.row(row.into());
    }
    table.to_string()
}

fn help(_: &Args) -> Outcome {
    Ok((usage(), 0))
}

/// Parses a workload spec — inline `shape:key=value,...` or a
/// `@path.toml` scenario file — into a [`Scenario`]. The parser itself is
/// [`Scenario::from_spec`], shared with campaign `workload =` lines and
/// the serve wire `open` op, so all three frontends reject unknown
/// shapes/keys with identical errors; here they gain the CLI's help
/// pointer.
fn parse_workload(spec: &str) -> Result<Scenario, UsageError> {
    Scenario::from_spec(spec).map_err(|e| UsageError(format!("{e} (see `cmvrp help`)")))
}

/// The table row `args` selects, and the words after the row's own.
fn command(args: &[String]) -> Result<(&'static Command, &[String]), UsageError> {
    let first = match args.first().map(String::as_str) {
        None | Some("--help" | "-h") => "help",
        Some(word) => word,
    };
    let rest = args.get(1..).unwrap_or_default();
    if let Some(cmd) = COMMANDS.iter().find(|c| c.words == [first]) {
        return Ok((cmd, rest));
    }
    let family: Vec<&'static Command> = COMMANDS.iter().filter(|c| c.words[0] == first).collect();
    if family.is_empty() {
        let mut names: Vec<&str> = COMMANDS.iter().map(|c| c.words[0]).collect();
        names.dedup();
        let names = names.join("|");
        return Err(UsageError(format!(
            "unknown command {first:?}; supported: {names}"
        )));
    }
    let subs: Vec<&str> = family.iter().map(|c| c.words[1]).collect();
    let subs = subs.join("|");
    let Some((sub, rest)) = rest.split_first() else {
        return Err(UsageError(format!("{first} needs a subcommand: {subs}")));
    };
    let cmd = family.into_iter().find(|c| c.words[1] == sub);
    let unknown = || {
        UsageError(format!(
            "unknown {first} subcommand {sub:?}; supported: {subs}"
        ))
    };
    Ok((cmd.ok_or_else(unknown)?, rest))
}

/// Dispatches a CLI invocation; returns the text to print plus the process
/// exit status: 0 for success, 1 when `trace diff` found a semantic
/// divergence or a campaign has dead runs (scriptable, like `cmp`/`diff`).
/// Usage and I/O errors surface as `Err` and exit 2.
pub fn run_with_status(args: &[String]) -> Result<(String, i32), UsageError> {
    let (cmd, rest) = command(args)?;
    (cmd.run)(&Args::parse(cmd, rest)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use args::Flag;
    use cmvrp_workloads::WorkloadConfig;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// [`run_with_status`] without the exit status.
    fn run(args: &[String]) -> Result<String, UsageError> {
        run_with_status(args).map(|(out, _)| out)
    }

    #[test]
    fn help_paths() {
        assert!(run(&[]).unwrap().contains("USAGE"));
        assert!(run(&argv("help")).unwrap().contains("USAGE"));
        assert!(run(&argv("workloads")).unwrap().contains("clusters"));
    }

    #[test]
    fn parse_point() {
        let sc = parse_workload("point:grid=9,demand=30").unwrap();
        assert_eq!(
            sc.demand,
            WorkloadConfig::Point {
                grid: 9,
                demand: 30
            }
        );
    }

    #[test]
    fn parse_clusters_with_default_seed() {
        let sc = parse_workload("clusters:grid=10,k=2,jobs=50").unwrap();
        assert_eq!(
            sc.demand,
            WorkloadConfig::Clusters {
                grid: 10,
                clusters: 2,
                jobs: 50,
                seed: 0
            }
        );
    }

    #[test]
    fn parse_errors() {
        assert!(parse_workload("blob:grid=4").is_err());
        assert!(parse_workload("point:grid=4").is_err()); // missing demand
        assert!(parse_workload("square:grid=4,demand=1").is_err()); // missing a
    }

    #[test]
    fn experiment_runs_and_rejects_unknown() {
        let out = run(&argv("experiment f1")).unwrap();
        assert!(out.contains("laminar"));
        assert!(run(&argv("experiment nope")).is_err());
        assert!(run(&argv("experiment")).is_err());
    }

    #[test]
    fn experiment_errors_name_every_id_the_usage_lists() {
        let usage = usage();
        let listed = usage
            .lines()
            .find(|l| l.contains("cmvrp experiment <id>"))
            .and_then(|l| l.split_once('('))
            .and_then(|(_, ids)| ids.strip_suffix(')'))
            .expect("usage lists the experiment ids");
        let unknown = run(&argv("experiment zz")).unwrap_err().0;
        let missing = run(&argv("experiment")).unwrap_err().0;
        for id in listed.split(", ") {
            assert!(unknown.contains(id), "{id} missing from {unknown:?}");
            assert!(missing.contains(id), "{id} missing from {missing:?}");
        }
        assert!(listed.contains("g2"), "{listed}");
    }

    /// Every table row EXPERIMENTS.md records under an experiment's
    /// heading (`## E7 — …`) is a line `cmvrp experiment e7` prints.
    #[test]
    fn experiment_prints_every_row_experiments_md_records() {
        let doc = include_str!("../../../EXPERIMENTS.md");
        let mut sections = 0;
        for section in doc.split("\n## ").skip(1) {
            let id = section
                .split_whitespace()
                .next()
                .unwrap_or_default()
                .to_lowercase();
            if !cmvrp_bench::EXPERIMENTS
                .iter()
                .any(|(known, _)| *known == id)
            {
                continue;
            }
            sections += 1;
            let out = run(&argv(&format!("experiment {id}"))).unwrap();
            for row in section.lines().filter(|l| l.starts_with('|')) {
                assert!(
                    out.lines().any(|l| l == row),
                    "{id}: EXPERIMENTS.md row {row:?} is not in\n{out}"
                );
            }
        }
        assert_eq!(sections, cmvrp_bench::EXPERIMENTS.len());
    }

    #[test]
    fn sweep_reports_growth() {
        let out = run(&argv("sweep point 64 512")).unwrap();
        assert!(out.contains("growth"));
        assert!(out.contains("cube-root"));
        assert!(run(&argv("sweep blob 1")).is_err());
        assert!(run(&argv("sweep point")).is_err());
        assert!(run(&argv("sweep point abc")).is_err());
    }

    #[test]
    fn show_renders() {
        let out = run(&argv("show point:grid=5,demand=9")).unwrap();
        assert!(out.contains('9'));
        assert_eq!(out.lines().count(), 6); // header + 5 rows
    }

    #[test]
    fn solve_runs() {
        let out = run(&argv("solve point:grid=9,demand=40")).unwrap();
        assert!(out.contains("omega*"));
        assert!(out.contains("valid: true"));
    }

    #[test]
    fn simulate_runs() {
        let out = run(&argv("simulate point:grid=8,demand=40 --seed=3")).unwrap();
        assert!(out.contains("served: 40/40"));
    }

    #[test]
    fn simulate_with_capacity_override() {
        let out = run(&argv("simulate point:grid=8,demand=60 --capacity=5")).unwrap();
        assert!(out.contains("served:"));
    }

    #[test]
    fn simulate_rejects_unknown_option() {
        assert!(run(&argv("simulate point:grid=8,demand=10 --what")).is_err());
    }

    #[test]
    fn missing_spec_errors() {
        assert!(run(&argv("solve")).is_err());
        assert!(run(&argv("simulate")).is_err());
        assert!(run(&argv("frobnicate")).is_err());
    }

    #[test]
    fn simulate_reports_delay_and_waves() {
        let out = run(&argv("simulate point:grid=8,demand=40")).unwrap();
        assert!(out.contains("msg delay: mean"));
        assert!(out.contains("diffusions"));
    }

    #[test]
    fn simulate_metrics_table() {
        let out = run(&argv("simulate point:grid=8,demand=40 --metrics")).unwrap();
        assert!(out.contains("metrics:"));
        assert!(out.contains("net.msgs_delivered"));
        assert!(out.contains("online.vehicle_energy.count"));
    }

    #[test]
    fn simulate_threads_traces_are_byte_identical() {
        // Leaving --threads out means one worker: the same bytes as
        // --threads=1 and as eight workers, with and without the ring.
        for (ring, monitored) in [("plain", ""), ("ring", " --monitored")] {
            let mut traces = Vec::new();
            for (tag, threads) in [
                ("default", ""),
                ("w1", " --threads=1"),
                ("w8", " --threads=8"),
            ] {
                let path =
                    std::env::temp_dir().join(format!("cmvrp_cli_threads_{ring}_{tag}.jsonl"));
                let out = run(&argv(&format!(
                    "simulate point:grid=12,demand=250{threads}{monitored} --check \
                     --trace-jsonl={}",
                    path.display()
                )))
                .unwrap();
                assert!(out.contains("all invariants hold"), "{out}");
                assert!(out.contains("served: 250/250"), "{out}");
                traces.push(std::fs::read(&path).unwrap());
                let _ = std::fs::remove_file(&path);
            }
            assert_eq!(traces[0], traces[1], "{ring}");
            assert_eq!(traces[0], traces[2], "{ring}");
        }
    }

    #[test]
    fn simulate_clusters_traces_are_byte_identical_across_worker_counts() {
        // The clusters panel has 4 shards: 1, 2, 3 and 8 workers map them
        // onto workers four different ways — the merged bytes must never
        // move.
        let mut traces = Vec::new();
        for threads in [1, 2, 3, 8] {
            let path = std::env::temp_dir().join(format!("cmvrp_cli_workers_w{threads}.jsonl"));
            let mut args = argv("simulate clusters:grid=12,k=3,jobs=180,seed=9 --check");
            args.push(format!("--threads={threads}"));
            args.push(format!("--trace-jsonl={}", path.display()));
            let out = run(&args).unwrap();
            assert!(out.contains("all invariants hold"), "{out}");
            traces.push(std::fs::read(&path).unwrap());
            let _ = std::fs::remove_file(&path);
        }
        for (trace, threads) in traces[1..].iter().zip([2, 3, 8]) {
            assert_eq!(*trace, traces[0], "{threads} workers");
        }
    }

    /// The scenario-file equivalence oracle: a default (batch, fault-free)
    /// scenario file must produce byte-identical traces to its flag spec
    /// through `simulate @file` AND `scenario run`, across worker counts
    /// and checked mode.
    #[test]
    fn scenario_file_flag_and_scenario_run_traces_are_byte_identical() {
        let dir = std::env::temp_dir();
        let file = dir.join("cmvrp_cli_oracle.toml");
        std::fs::write(
            &file,
            "[substrate]\nside = 12\n[demand]\nshape = clusters\nk = 3\njobs = 180\nseed = 9\n",
        )
        .unwrap();
        let spec = format!("@{}", file.display());
        let mut reference: Option<Vec<u8>> = None;
        for (tag, extra) in [
            ("w1", "--threads=1"),
            ("w2", "--threads=2 --check"),
            ("w3", "--threads=3 --check"),
            ("w8", "--threads=8"),
        ] {
            let mut traces = Vec::new();
            for (kind, head) in [
                (
                    "flags",
                    vec![
                        "simulate".into(),
                        "clusters:grid=12,k=3,jobs=180,seed=9".into(),
                    ],
                ),
                ("file", vec!["simulate".into(), spec.clone()]),
                (
                    "run",
                    vec!["scenario".into(), "run".into(), file.display().to_string()],
                ),
            ] {
                let path = dir.join(format!("cmvrp_cli_oracle_{tag}_{kind}.jsonl"));
                let mut args = head;
                args.extend(argv(extra));
                args.push(format!("--trace-jsonl={}", path.display()));
                run(&args).unwrap();
                traces.push(std::fs::read(&path).unwrap());
                let _ = std::fs::remove_file(&path);
            }
            assert_eq!(traces[0], traces[1], "{tag}: simulate @file drifted");
            assert_eq!(traces[0], traces[2], "{tag}: scenario run drifted");
            let first = reference.get_or_insert_with(|| traces[0].clone());
            assert_eq!(*first, traces[0], "{tag}: differs from one worker");
        }
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn scenario_check_describes_the_file() {
        let file = std::env::temp_dir().join("cmvrp_cli_check.toml");
        std::fs::write(
            &file,
            "name = \"t\"\n[substrate]\nside = 9\n[demand]\nshape = point\ndemand = 30\n\
             [arrivals]\nmode = flash-crowd\nat = 25\n[report]\nbaselines = gn\n",
        )
        .unwrap();
        let out = run(&[
            "scenario".into(),
            "check".into(),
            file.display().to_string(),
        ])
        .unwrap();
        assert!(out.contains("scenario ok: t"), "{out}");
        assert!(out.contains("substrate: 9x9 grid, 81 vehicles"), "{out}");
        assert!(out.contains("arrivals: flash-crowd at=25"), "{out}");
        assert!(out.contains("report: gn"), "{out}");
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn scenario_parse_errors_are_line_and_column_scoped() {
        let file = std::env::temp_dir().join("cmvrp_cli_bad_scenario.toml");
        std::fs::write(&file, "[substrate]\nside = 9\n[demand]\nshape = blob\n").unwrap();
        let err = run(&[
            "scenario".into(),
            "check".into(),
            file.display().to_string(),
        ])
        .unwrap_err();
        assert!(err.0.contains("line 4, col 9"), "{err}");
        assert!(err.0.contains("unknown demand shape \"blob\""), "{err}");
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn simulate_rejects_fault_scripts_naming_scenario_run() {
        let file = std::env::temp_dir().join("cmvrp_cli_faulty.toml");
        std::fs::write(
            &file,
            "[substrate]\nside = 9\n[demand]\nshape = point\ndemand = 30\n\
             [faults]\ncrash_at_rounds = 3\n",
        )
        .unwrap();
        let err = run(&["simulate".into(), format!("@{}", file.display())]).unwrap_err();
        assert!(err.0.contains("scripts faults"), "{err}");
        assert!(err.0.contains("cmvrp scenario run"), "{err}");
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn scenario_run_executes_the_fault_script_and_reports_recovery() {
        let file = std::env::temp_dir().join("cmvrp_cli_crashy.toml");
        std::fs::write(
            &file,
            "[substrate]\nside = 10\n[demand]\nshape = uniform\njobs = 80\nseed = 2\n\
             [faults]\ncrash_at_rounds = 3, 7\n[report]\nbaselines = none\n",
        )
        .unwrap();
        let out = run(&["scenario".into(), "run".into(), file.display().to_string()]).unwrap();
        assert!(
            out.contains("recovery: crashed + resumed from snapshot at rounds 3, 7"),
            "{out}"
        );
        assert!(out.contains("| protocol served"), "{out}");
        assert!(out.contains("80/80"), "{out}");
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn simulate_metrics_show_worker_counters() {
        let out = run(&argv(
            "simulate point:grid=12,demand=250 --threads=2 --metrics",
        ))
        .unwrap();
        assert!(out.contains("engine.rounds"), "{out}");
        assert!(out.contains("engine.worker0.shards_stepped"), "{out}");
        assert!(out.contains("engine.worker0.busy_us"), "{out}");
    }

    #[test]
    fn simulate_rejects_zero_threads() {
        let err = run(&argv("simulate point:grid=8,demand=40 --threads=0")).unwrap_err();
        assert!(err.0.contains("--threads must be at least 1"), "{err}");
    }

    #[test]
    fn simulate_rejects_stop_at_round_zero() {
        let ckpt = std::env::temp_dir().join("cmvrp_cli_stop_zero.cmvc");
        let _ = std::fs::remove_file(&ckpt);
        let err = run(&[
            "simulate".into(),
            "point:grid=8,demand=40".into(),
            "--stop-at-round=0".into(),
            format!("--checkpoint={}", ckpt.display()),
        ])
        .unwrap_err();
        assert!(err.0.contains("rounds count from 1"), "{err}");
        assert!(err.0.contains("--stop-at-round=1"), "{err}");
        assert!(!ckpt.exists(), "a refused run must write no snapshot");
    }

    #[test]
    fn simulate_million_vehicle_grid_runs_without_threads() {
        // 1024² vehicles on the default single worker: only the cube the
        // demand lands in ever materializes.
        let out = run(&argv("simulate point:grid=1024,demand=50")).unwrap();
        assert!(out.contains("served: 50/50"), "{out}");
    }

    #[test]
    fn trace_then_stats_round_trips() {
        let path = std::env::temp_dir().join("cmvrp_cli_trace_test.jsonl");
        let path_str = path.to_str().unwrap().to_string();
        // Space-separated option form; demand high enough that vehicles
        // exhaust, so the trace carries message and diffusion events too.
        let sim_out = run(&[
            "simulate".into(),
            "point:grid=8,demand=300".into(),
            "--trace-jsonl".into(),
            path_str.clone(),
        ])
        .unwrap();
        assert!(sim_out.contains("trace:"));
        let stats_out = run(&["trace".into(), "stats".into(), path_str.clone()]).unwrap();
        // The trace alone reproduces the report's served and message
        // counts, in the stats table and in the summary behind it.
        let stat = |name: &str| -> u64 {
            let row = stats_out
                .lines()
                .find(|l| l.split('|').nth(1).map(str::trim) == Some(name))
                .unwrap_or_else(|| panic!("no {name} row in {stats_out}"));
            row.split('|').nth(2).unwrap().trim().parse().unwrap()
        };
        let served_line = sim_out
            .lines()
            .find(|l| l.starts_with("served:"))
            .unwrap()
            .to_string();
        let served: u64 = served_line
            .trim_start_matches("served: ")
            .split('/')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        let trace = cmvrp_obs::load_trace(&path_str).unwrap();
        let summary = cmvrp_obs::summarize(trace.events()).unwrap();
        assert_eq!(summary.jobs_served, served);
        assert_eq!(stat("jobs_served"), served);
        assert_eq!(summary.jobs_unserved(), 0);
        let msgs_line = sim_out
            .lines()
            .find(|l| l.starts_with("messages:"))
            .unwrap()
            .to_string();
        let messages: u64 = msgs_line.trim_start_matches("messages: ").parse().unwrap();
        assert_eq!(summary.msgs_delivered, messages);
        assert_eq!(stat("msgs_delivered"), messages);
        assert!(summary.msgs_delivered > 0);
        assert!(summary.diffusions_started > 0);
        assert!(summary.replacement_cycles > 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_jsonl_equals_form_works() {
        let path = std::env::temp_dir().join("cmvrp_cli_trace_eq_test.jsonl");
        let spec = format!("--trace-jsonl={}", path.display());
        let out = run(&["simulate".into(), "point:grid=6,demand=10".into(), spec]).unwrap();
        assert!(out.contains("trace:"));
        assert!(std::fs::metadata(&path).unwrap().len() > 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn simulate_check_passes_on_clean_run() {
        let out = run(&argv("simulate point:grid=8,demand=300 --check")).unwrap();
        assert!(out.contains("check:"), "{out}");
        assert!(out.contains("all invariants hold"), "{out}");
        assert!(out.contains("served: 300/300"), "{out}");
    }

    #[test]
    fn simulate_sharded_check_runs_inline() {
        // Inline verification on the parallel engine: per-shard monitors
        // plus the merge-time cross-shard monitors, no trace file needed.
        let out = run(&argv(
            "simulate point:grid=12,demand=250 --threads=8 --check",
        ))
        .unwrap();
        assert!(out.contains("all invariants hold"), "{out}");
        assert!(out.contains("served: 250/250"), "{out}");
    }

    #[test]
    fn simulate_check_with_trace_validates_and_writes() {
        let path = std::env::temp_dir().join("cmvrp_cli_check_trace.jsonl");
        let path_str = path.to_str().unwrap().to_string();
        let out = run(&[
            "simulate".into(),
            "point:grid=8,demand=120".into(),
            "--check".into(),
            format!("--trace-jsonl={path_str}"),
        ])
        .unwrap();
        assert!(out.contains("trace:"), "{out}");
        assert!(out.contains("all invariants hold"), "{out}");
        // The written trace passes the offline checker too.
        let check_out = run(&["trace".into(), "check".into(), path_str.clone()]).unwrap();
        assert!(check_out.contains("trace OK"), "{check_out}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_check_names_invariant_and_line() {
        let path = std::env::temp_dir().join("cmvrp_cli_bad_invariant.jsonl");
        // A delivery with no matching send: channel-fifo must fire on line 1.
        std::fs::write(
            &path,
            "{\"ev\":\"msg_delivered\",\"t\":5,\"from\":0,\"to\":1,\"delay\":2}\n",
        )
        .unwrap();
        let err = run(&[
            "trace".into(),
            "check".into(),
            path.to_str().unwrap().into(),
        ])
        .unwrap_err();
        assert!(err.0.contains("[channel-fifo]"), "{err}");
        assert!(err.0.contains(":1:"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_stats_and_timeline_and_spans() {
        let path = std::env::temp_dir().join("cmvrp_cli_trace_tools.jsonl");
        let path_str = path.to_str().unwrap().to_string();
        run(&[
            "simulate".into(),
            "point:grid=8,demand=300".into(),
            "--trace-jsonl".into(),
            path_str.clone(),
        ])
        .unwrap();
        let stats = run(&["trace".into(), "stats".into(), path_str.clone()]).unwrap();
        assert!(stats.contains("trace stats of"), "{stats}");
        assert!(stats.contains("fleet_capacity"), "{stats}");
        let timeline = run(&[
            "trace".into(),
            "timeline".into(),
            "0".into(),
            path_str.clone(),
        ])
        .unwrap();
        assert!(timeline.contains("timeline of process 0"), "{timeline}");
        assert!(timeline.contains("lamport"), "{timeline}");
        // The online protocol emits no phase spans; the subcommand must
        // say so rather than print an empty table.
        let spans = run(&["trace".into(), "spans".into(), path_str.clone()]).unwrap();
        assert!(spans.contains("no phase spans"), "{spans}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_spans_aggregates() {
        let path = std::env::temp_dir().join("cmvrp_cli_spans.jsonl");
        std::fs::write(
            &path,
            "{\"ev\":\"phase_span\",\"name\":\"solve\",\"start_ns\":0,\"end_ns\":100}\n\
             {\"ev\":\"phase_span\",\"name\":\"solve\",\"start_ns\":100,\"end_ns\":400}\n\
             {\"ev\":\"phase_span\",\"name\":\"plan\",\"start_ns\":0,\"end_ns\":10}\n",
        )
        .unwrap();
        let out = run(&[
            "trace".into(),
            "spans".into(),
            path.to_str().unwrap().into(),
        ])
        .unwrap();
        // "solve" (400 ns total over 2 spans) must sort above "plan".
        let solve_at = out.find("solve").unwrap();
        let plan_at = out.find("plan").unwrap();
        assert!(solve_at < plan_at, "{out}");
        assert!(out.contains("400"), "{out}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_usage_errors() {
        assert!(run(&argv("trace")).is_err());
        assert!(run(&argv("trace check")).is_err());
        assert!(run(&argv("trace stats")).is_err());
        assert!(run(&argv("trace timeline 0")).is_err());
        assert!(run(&argv("trace spans")).is_err());
        assert!(run(&argv("trace timeline zero /tmp/x.jsonl")).is_err());
        assert!(run(&argv("trace check /nonexistent/x.jsonl")).is_err());
    }

    #[test]
    fn simulate_trace_bin_is_byte_identical_across_threads() {
        let mut traces = Vec::new();
        for threads in [1, 8] {
            let path = std::env::temp_dir().join(format!("cmvrp_cli_bin_threads_{threads}.bin"));
            let out = run(&[
                "simulate".into(),
                "point:grid=12,demand=250".into(),
                format!("--threads={threads}"),
                "--check".into(),
                format!("--trace-bin={}", path.display()),
            ])
            .unwrap();
            assert!(out.contains("all invariants hold"), "{out}");
            assert!(out.contains("(binary)"), "{out}");
            traces.push(std::fs::read(&path).unwrap());
            let _ = std::fs::remove_file(&path);
        }
        assert_eq!(traces[0], traces[1]);
        assert!(cmvrp_obs::is_binary_trace(&traces[0]));
    }

    #[test]
    fn trace_bin_conflicts_with_trace_jsonl() {
        let err = run(&argv(
            "simulate point:grid=8,demand=10 --trace-jsonl=/tmp/a.jsonl --trace-bin=/tmp/a.bin",
        ))
        .unwrap_err();
        // The rejection names both flags and the supported alternative.
        assert!(err.0.contains("--trace-jsonl"), "{err}");
        assert!(err.0.contains("--trace-bin"), "{err}");
        assert!(err.0.contains("trace convert"), "{err}");
    }

    #[test]
    fn trace_convert_roundtrips_byte_for_byte() {
        let dir = std::env::temp_dir();
        let jsonl = dir.join("cmvrp_cli_convert.jsonl");
        let bin = dir.join("cmvrp_cli_convert.bin");
        let back = dir.join("cmvrp_cli_convert_back.jsonl");
        run(&[
            "simulate".into(),
            "point:grid=8,demand=120".into(),
            format!("--trace-jsonl={}", jsonl.display()),
        ])
        .unwrap();
        let to_bin = run(&[
            "trace".into(),
            "convert".into(),
            jsonl.to_str().unwrap().into(),
            bin.to_str().unwrap().into(),
        ])
        .unwrap();
        assert!(to_bin.contains("(jsonl) ->"), "{to_bin}");
        assert!(cmvrp_obs::is_binary_trace(&std::fs::read(&bin).unwrap()));
        let to_jsonl = run(&[
            "trace".into(),
            "convert".into(),
            bin.to_str().unwrap().into(),
            back.to_str().unwrap().into(),
        ])
        .unwrap();
        assert!(to_jsonl.contains("(binary) ->"), "{to_jsonl}");
        assert_eq!(
            std::fs::read(&jsonl).unwrap(),
            std::fs::read(&back).unwrap(),
            "JSONL -> binary -> JSONL must be lossless"
        );
        for p in [&jsonl, &bin, &back] {
            let _ = std::fs::remove_file(p);
        }
    }

    /// `trace convert` of `bytes` fails as `trace stats` of the same file
    /// does, and writes no output.
    fn convert_refuses_like_stats(name: &str, bytes: &[u8], msg: &str) {
        let dir = std::env::temp_dir();
        let input = dir.join(format!("cmvrp_cli_convert_{name}"));
        let output = dir.join(format!("cmvrp_cli_convert_{name}.out"));
        std::fs::write(&input, bytes).unwrap();
        let _ = std::fs::remove_file(&output);
        let input = input.to_str().unwrap().to_string();
        let out = output.to_str().unwrap().to_string();
        let want = format!("{input}: {msg}");
        let convert = run(&["trace".into(), "convert".into(), input.clone(), out]).unwrap_err();
        assert_eq!(convert.0, want);
        let stats = run(&["trace".into(), "stats".into(), input.clone()]).unwrap_err();
        assert_eq!(stats.0, want);
        assert!(!output.exists(), "convert wrote {}", output.display());
        let _ = std::fs::remove_file(&input);
    }

    #[test]
    fn trace_convert_refuses_an_empty_file() {
        convert_refuses_like_stats(
            "empty.jsonl",
            b"",
            "empty file (0 bytes): not a trace in either encoding (JSONL traces have one \
             event per line, binary traces open with the CMVB magic)",
        );
    }

    #[test]
    fn trace_convert_refuses_a_truncated_magic() {
        convert_refuses_like_stats(
            "trunc.bin",
            b"CMV",
            "file is 3 byte(s), shorter than the 4-byte CMVB magic it begins with: \
             truncated binary trace",
        );
    }

    #[test]
    fn trace_tools_accept_binary_traces() {
        // check/stats/timeline/spans must sniff the encoding and decode.
        let path = std::env::temp_dir().join("cmvrp_cli_bin_tools.bin");
        let path_str = path.to_str().unwrap().to_string();
        run(&[
            "simulate".into(),
            "point:grid=8,demand=300".into(),
            "--trace-bin".into(),
            path_str.clone(),
        ])
        .unwrap();
        let check = run(&["trace".into(), "check".into(), path_str.clone()]).unwrap();
        assert!(check.contains("trace OK"), "{check}");
        let stats = run(&["trace".into(), "stats".into(), path_str.clone()]).unwrap();
        assert!(stats.contains("jobs_served"), "{stats}");
        let timeline = run(&[
            "trace".into(),
            "timeline".into(),
            "0".into(),
            path_str.clone(),
        ])
        .unwrap();
        assert!(timeline.contains("timeline of process 0"), "{timeline}");
        let spans = run(&["trace".into(), "spans".into(), path_str.clone()]).unwrap();
        assert!(spans.contains("no phase spans"), "{spans}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn profile_run_records_samples_and_trace_profile_renders() {
        let path = std::env::temp_dir().join("cmvrp_cli_profile.bin");
        let path_str = path.to_str().unwrap().to_string();
        let started = std::time::Instant::now();
        let out = run(&[
            "simulate".into(),
            "point:grid=12,demand=250".into(),
            "--threads=2".into(),
            "--profile".into(),
            "--check".into(),
            format!("--trace-bin={path_str}"),
        ])
        .unwrap();
        let wall_ns = started.elapsed().as_nanos() as u64;
        assert!(out.contains("all invariants hold"), "{out}");
        // The samples are first-class events: the offline checker sees
        // them (the `profile` monitor is always active) and stats counts
        // them.
        let check = run(&["trace".into(), "check".into(), path_str.clone()]).unwrap();
        assert!(check.contains("trace OK"), "{check}");
        assert!(check.contains("profile"), "{check}");
        let stats = run(&["trace".into(), "stats".into(), path_str.clone()]).unwrap();
        assert!(stats.contains("round_profiles"), "{stats}");
        let profile = run(&["trace".into(), "profile".into(), path_str.clone()]).unwrap();
        assert!(profile.contains("2 workers"), "{profile}");
        assert!(profile.contains("util%"), "{profile}");
        assert!(profile.contains("phases:"), "{profile}");
        assert!(profile.contains("timeline"), "{profile}");
        // The recorded phase breakdown is nested inside the measured
        // wall-clock of the whole run, and is a real (nonzero) share of
        // it. Parse "... = X ms recorded" back out.
        let recorded_ms: f64 = profile
            .lines()
            .find(|l| l.starts_with("phases:"))
            .and_then(|l| l.split("= ").nth(1))
            .and_then(|t| t.split(" ms").next())
            .unwrap()
            .parse()
            .unwrap();
        assert!(recorded_ms > 0.0, "{profile}");
        assert!(
            recorded_ms * 1e6 <= wall_ns as f64,
            "recorded {recorded_ms} ms exceeds run wall {} ms",
            wall_ns as f64 / 1e6
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_profile_without_samples_says_so() {
        let path = std::env::temp_dir().join("cmvrp_cli_profile_none.jsonl");
        let path_str = path.to_str().unwrap().to_string();
        run(&[
            "simulate".into(),
            "point:grid=8,demand=40".into(),
            format!("--trace-jsonl={path_str}"),
        ])
        .unwrap();
        let out = run(&["trace".into(), "profile".into(), path_str.clone()]).unwrap();
        assert!(out.contains("no round_profile samples"), "{out}");
        assert!(out.contains("--profile"), "{out}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn profile_and_progress_flag_validation() {
        // --progress without a terminal (the test harness captures
        // stderr): the error names the supported alternatives.
        let err = run(&argv(
            "simulate point:grid=8,demand=40 --threads=2 --progress",
        ))
        .unwrap_err();
        assert!(err.0.contains("--progress=force"), "{err}");
        assert!(err.0.contains("--profile"), "{err}");
        // --progress=force paints regardless — the run itself succeeds.
        let out = run(&argv(
            "simulate point:grid=8,demand=40 --threads=2 --progress=force",
        ))
        .unwrap();
        assert!(out.contains("served: 40/40"), "{out}");
    }

    #[test]
    fn trace_stats_rejects_garbage() {
        let path = std::env::temp_dir().join("cmvrp_cli_bad_trace.jsonl");
        let path_str = path.to_str().unwrap().to_string();
        std::fs::write(&path, "not json\n").unwrap();
        let err = run(&["trace".into(), "stats".into(), path_str.clone()]).unwrap_err();
        assert!(err.0.contains(&format!("{path_str}:1:")), "{err}");
        let _ = std::fs::remove_file(&path);
        assert!(run(&argv("trace stats /nonexistent/x.jsonl")).is_err());
    }

    fn golden_path() -> String {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/data/golden_point.jsonl"
        )
        .into()
    }

    /// The serve wire's ops, as a server's reply to an unknown op lists
    /// them.
    fn wire_ops() -> Vec<String> {
        let server = cmvrp_serve::Server::bind(cmvrp_serve::ServeConfig {
            addr: "127.0.0.1:0".into(),
            connections: 1,
            ..Default::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let listener = std::thread::spawn(move || server.run());
        let mut reply = Vec::new();
        cmvrp_serve::send(&addr, &mut &b"{\"op\":\"bogus\"}\n"[..], &mut reply).unwrap();
        listener.join().unwrap().unwrap();
        let reply = String::from_utf8(reply).unwrap();
        let (_, ops) = reply.split_once("supported ops: ").expect("ops listed");
        let ops = ops.split('"').next().unwrap();
        ops.split(", ").map(String::from).collect()
    }

    /// README.md and DESIGN.md each name every subcommand of the table,
    /// every wire op and every event kind (the rows of `cmvrp-obs`'s
    /// schema table, which tier-1 `tests/event_schema.rs` pins).
    #[test]
    fn docs_name_every_subcommand_wire_op_and_event_kind() {
        let obs_docs = include_str!("../../obs/src/lib.rs");
        let kinds: Vec<&str> = obs_docs
            .lines()
            .filter_map(|l| l.strip_prefix("//! | `"))
            .filter_map(|l| Some(l.split_once("` | `")?.0))
            .collect();
        assert_eq!(kinds.len(), 13, "{kinds:?}");
        let ops = wire_ops();
        assert!(ops.iter().any(|op| op == "inject"), "{ops:?}");
        let mut missing = Vec::new();
        for (file, doc) in [
            ("README.md", include_str!("../../../README.md")),
            ("DESIGN.md", include_str!("../../../DESIGN.md")),
        ] {
            for cmd in COMMANDS {
                let name = cmd.name();
                let spellings = [
                    format!("cmvrp {name}"),
                    format!("-- {name}"),
                    format!("`{name}`"),
                    format!("`{name} "),
                ];
                if !spellings
                    .iter()
                    .any(|spelled| doc.contains(spelled.as_str()))
                {
                    missing.push(format!("{file}: subcommand {name}"));
                }
            }
            for op in &ops {
                if !doc.contains(&format!("\"op\":\"{op}\"")) && !doc.contains(&format!("`{op}`")) {
                    missing.push(format!("{file}: wire op {op}"));
                }
            }
            for kind in &kinds {
                if !doc.contains(kind) {
                    missing.push(format!("{file}: event kind {kind}"));
                }
            }
        }
        assert!(missing.is_empty(), "never named: {missing:#?}");
    }

    /// The error `argv` gets from `cmd`'s row.
    fn refused(cmd: &'static Command, argv: &[String]) -> String {
        match Args::parse(cmd, argv) {
            Ok(_) => panic!("{} accepted {argv:?}", cmd.name()),
            Err(e) => e.0,
        }
    }

    /// Every row gets the same parser: each valued flag takes `--name=v`
    /// and `--name v` and refuses a following option as its value, each
    /// switch refuses a value, and unknown options and missing arguments
    /// get one error shape everywhere.
    #[test]
    fn every_command_parses_its_flags_one_way() {
        for cmd in COMMANDS {
            let name = cmd.name();
            let with = |tail: &[&str]| -> Vec<String> {
                let args = cmd.args.iter().map(|a| format!("<{}>", a.name));
                args.chain(tail.iter().map(|t| t.to_string())).collect()
            };
            for Flag(spelling, _) in cmd.flags {
                let long = spelling.split(['=', '[']).next().unwrap();
                let flag = &long[2..];
                if spelling.contains('=') && !spelling.contains('[') {
                    for argv in [with(&[&format!("{long}=v")]), with(&[long, "v"])] {
                        let args = Args::parse(cmd, &argv).unwrap();
                        assert_eq!(args.value(flag), Some("v"), "{name} {argv:?}");
                    }
                    let err = refused(cmd, &with(&[long, "--x"]));
                    assert!(err.starts_with(&format!("{long} needs a value")), "{err}");
                    let err = refused(cmd, &with(&[long]));
                    assert!(err.starts_with(&format!("{long} needs a value")), "{err}");
                } else {
                    assert!(Args::parse(cmd, &with(&[long])).unwrap().has(flag));
                    let err = refused(cmd, &with(&[&format!("{long}=v")]));
                    assert!(err.contains(&format!("is written {spelling}")), "{err}");
                }
            }
            let err = refused(cmd, &with(&["--bogus"]));
            let want = format!("unknown option \"--bogus\"; {name} accepts ");
            assert!(err.starts_with(&want), "{err}");
            if !cmd.args.last().is_some_and(|a| a.many) {
                let err = refused(cmd, &with(&["extra"]));
                assert!(err.starts_with("unexpected argument \"extra\""), "{err}");
            }
            if !cmd.args.is_empty() {
                let err = refused(cmd, &[]);
                assert!(err.starts_with(&format!("{name} needs ")), "{err}");
            }
        }
    }

    /// A valued flag followed by another flag is refused naming both,
    /// rather than writing a trace file named after the second flag.
    #[test]
    fn a_flag_value_that_is_another_flag_is_refused() {
        for (flag, next) in [("--trace-jsonl", "--check"), ("--trace-bin", "--metrics")] {
            let err = run(&argv(&format!(
                "simulate point:grid=4,demand=5 {flag} {next}"
            )))
            .unwrap_err()
            .0;
            assert!(err.starts_with(&format!("{flag} needs a value")), "{err}");
            assert!(err.contains(next), "{err}");
            assert!(!std::path::Path::new(next).exists(), "wrote {next}");
        }
    }

    #[test]
    fn trace_diff_identical_on_both_encodings() {
        let golden = golden_path();
        // Self-diff: exit status 0, says identical, names both encodings.
        let (out, status) = run_with_status(&[
            "trace".into(),
            "diff".into(),
            golden.clone(),
            golden.clone(),
        ])
        .unwrap();
        assert_eq!(status, 0, "{out}");
        assert!(out.contains("identical"), "{out}");
        assert!(out.contains("encoding JSONL"), "{out}");
        // Convert to binary and diff cross-encoding: still identical —
        // the differ compares events, whatever their encoding.
        let bin = std::env::temp_dir().join("cmvrp_cli_diff_golden.bin");
        let bin_str = bin.to_str().unwrap().to_string();
        run(&[
            "trace".into(),
            "convert".into(),
            golden.clone(),
            bin_str.clone(),
        ])
        .unwrap();
        let (out, status) =
            run_with_status(&["trace".into(), "diff".into(), golden.clone(), bin_str]).unwrap();
        assert_eq!(status, 0, "{out}");
        assert!(out.contains("encoding CMVB"), "{out}");
        let _ = std::fs::remove_file(&bin);
    }

    /// Every trace tool prints the same report for a JSONL trace and for
    /// its CMVB conversion, apart from the paths and the identity header.
    #[test]
    fn trace_tools_print_alike_on_both_encodings() {
        let dir = std::env::temp_dir();
        let profiled = dir.join("cmvrp_cli_alike_profile.jsonl");
        let profiled = profiled.to_str().unwrap().to_string();
        run(&argv(&format!(
            "simulate point:grid=12,demand=250 --threads=2 --profile --trace-jsonl={profiled}"
        )))
        .unwrap();
        let golden = golden_path();
        // The diff partner is a copy, so its path is neither trace's.
        let partner = dir.join("cmvrp_cli_alike_partner.jsonl");
        std::fs::copy(&golden, &partner).unwrap();
        let partner = partner.to_str().unwrap().to_string();
        for (tag, jsonl) in [("golden", golden.clone()), ("profile", profiled.clone())] {
            let bin = dir.join(format!("cmvrp_cli_alike_{tag}.bin"));
            let bin = bin.to_str().unwrap().to_string();
            run(&argv(&format!("trace convert {jsonl} {bin}"))).unwrap();
            // Each command's words, with the trace path in place of `T`.
            let commands: [&[&str]; 11] = [
                &["stats", "T"],
                &["stats", "T", "--where=kind=served and vehicle=13"],
                &["check", "T"],
                &["query", "kind=replacement_cycle or seq=5", "T"],
                &["timeline", "13", "T"],
                &["spans", "T"],
                &["profile", "T"],
                &["explain", "job:101", "T"],
                &["explain", "proc:13", "T"],
                &["explain", "line:300", "T"],
                &["diff", &partner, "T"],
            ];
            for words in commands {
                let report = |path: &str| {
                    let args: Vec<String> = ["trace"]
                        .iter()
                        .chain(words)
                        .map(|w| if *w == "T" { path } else { w }.to_string())
                        .collect();
                    let (out, status) = run_with_status(&args).unwrap_or_else(|e| (e.0, 2));
                    let out = out.replace(path, "<trace>");
                    let out = out.replace("encoding JSONL, schema v2", "<identity>");
                    (
                        out.replace("encoding CMVB, schema v1", "<identity>"),
                        status,
                    )
                };
                let (a, b) = (report(&jsonl), report(&bin));
                assert_eq!(a, b, "trace {words:?} on {tag}");
                assert!(!a.0.contains("encoding"), "{a:?}");
            }
            let _ = std::fs::remove_file(&bin);
        }
        let _ = std::fs::remove_file(&profiled);
        let _ = std::fs::remove_file(&partner);
    }

    /// `check`, `timeline` and `explain` refuse a job seq or a process id
    /// past the trace's bound with a scoped error instead of allocating
    /// for it; `stats` keeps no state per id and reads both traces.
    #[test]
    fn trace_tools_refuse_ids_past_the_bound() {
        let fleet = r#"{"ev":"fleet_provisioned","t":0,"vehicles":4,"capacity":10}"#;
        let cases = [
            (
                "seq",
                r#"{"ev":"job_arrived","t":1,"seq":400000000000,"pos":[0,0]}"#,
            ),
            (
                "from",
                r#"{"ev":"msg_sent","t":1,"from":400000000000,"to":1}"#,
            ),
        ];
        for (field, line) in cases {
            let path = std::env::temp_dir().join(format!("cmvrp_cli_huge_{field}.jsonl"));
            std::fs::write(&path, format!("{fleet}\n{line}\n")).unwrap();
            let path = path.to_str().unwrap().to_string();
            for cmd in ["check", "timeline 1", "explain line:2"] {
                let err = run(&argv(&format!("trace {cmd} {path}"))).unwrap_err();
                let want = format!("{path}:2: \"{field}\" 400000000000 is past the bound");
                assert!(err.0.starts_with(&want), "trace {cmd}: {err}");
                assert!(err.0.ends_with(", 1048576"), "trace {cmd}: {err}");
            }
            run(&argv(&format!("trace stats {path}"))).unwrap();
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn trace_diff_localizes_a_mutated_field() {
        let golden = golden_path();
        // Flip one field on line 3 of a copy; diff must name the line,
        // the field, and both values, and exit 1.
        let text = std::fs::read_to_string(&golden).unwrap();
        let mutated: String = text
            .lines()
            .enumerate()
            .map(|(i, l)| {
                if i == 2 {
                    l.replace("\"vehicle\":14", "\"vehicle\":15")
                } else {
                    l.to_string()
                }
            })
            .fold(String::new(), |mut acc, l| {
                acc.push_str(&l);
                acc.push('\n');
                acc
            });
        assert_ne!(text, mutated, "mutation target moved; update the test");
        let mut_path = std::env::temp_dir().join("cmvrp_cli_diff_mut.jsonl");
        std::fs::write(&mut_path, mutated).unwrap();
        let (out, status) = run_with_status(&[
            "trace".into(),
            "diff".into(),
            golden,
            mut_path.to_str().unwrap().into(),
        ])
        .unwrap();
        assert_eq!(status, 1, "{out}");
        assert!(out.contains("first divergence at line 3"), "{out}");
        assert!(out.contains("payload drift"), "{out}");
        assert!(out.contains("vehicle: 14 (A) vs 15 (B)"), "{out}");
        // Both context windows carry the offending line, marked.
        assert!(out.contains("context A:"), "{out}");
        assert!(out.contains(" > 3: "), "{out}");
        let _ = std::fs::remove_file(&mut_path);
    }

    #[test]
    fn trace_query_filters_and_counts() {
        let golden = golden_path();
        let out = run(&[
            "trace".into(),
            "query".into(),
            "kind=delivered and msg=move".into(),
            golden.clone(),
        ])
        .unwrap();
        // Every printed line is a move delivery, each with its line number.
        let hits: Vec<&str> = out
            .lines()
            .filter(|l| l.contains("msg_delivered"))
            .collect();
        assert!(!hits.is_empty(), "{out}");
        for hit in &hits {
            assert!(hit.contains("\"kind\":\"move\""), "{hit}");
        }
        assert!(
            out.contains(&format!("matched {} of 502 events", hits.len())),
            "{out}"
        );
        // Malformed expression: position-scoped error naming the column.
        let err = run(&["trace".into(), "query".into(), "kind=".into(), golden]).unwrap_err();
        assert!(err.0.contains("col 6"), "{err}");
    }

    #[test]
    fn trace_explain_walks_the_replacement_chain() {
        let golden = golden_path();
        // Job 101 was served by vehicle 13, which activated via a
        // replacement cycle: its chain must walk back through the move
        // message (sent → delivered) into the serve.
        let out = run(&[
            "trace".into(),
            "explain".into(),
            "job:101".into(),
            golden.clone(),
        ])
        .unwrap();
        assert!(out.contains("causal chain"), "{out}");
        assert!(out.contains("\"kind\":\"move\""), "{out}");
        assert!(out.contains("msg_sent"), "{out}");
        assert!(out.contains("msg_delivered"), "{out}");
        assert!(out.contains("replacement_cycle"), "{out}");
        assert!(out.contains("=> line 306"), "{out}");
        assert!(out.contains("lamport"), "{out}");
        // proc: and line: selectors resolve too.
        let out = run(&[
            "trace".into(),
            "explain".into(),
            "proc:13".into(),
            golden.clone(),
        ])
        .unwrap();
        assert!(out.contains("=> "), "{out}");
        let out = run(&[
            "trace".into(),
            "explain".into(),
            "line:1".into(),
            golden.clone(),
        ])
        .unwrap();
        assert!(out.contains("root cause"), "{out}");
        // Errors: absent job, silent process, bad selector shape.
        let err = run(&[
            "trace".into(),
            "explain".into(),
            "job:9999".into(),
            golden.clone(),
        ])
        .unwrap_err();
        assert!(err.0.contains("job 9999"), "{err}");
        let err = run(&["trace".into(), "explain".into(), "what".into(), golden]).unwrap_err();
        assert!(err.0.contains("job:<seq>"), "{err}");
        assert!(err.0.contains("line:<n>"), "{err}");
    }

    #[test]
    fn trace_stats_header_and_where_filter() {
        let golden = golden_path();
        let stats = run(&["trace".into(), "stats".into(), golden.clone()]).unwrap();
        assert!(stats.contains("encoding JSONL"), "{stats}");
        assert!(stats.contains("schema v2"), "{stats}");
        assert!(stats.contains("502 events"), "{stats}");
        // --where restricts the summary to matching events.
        let filtered = run(&[
            "trace".into(),
            "stats".into(),
            golden.clone(),
            "--where=kind=served and vehicle=13".into(),
        ])
        .unwrap();
        assert!(filtered.contains("where:"), "{filtered}");
        assert!(filtered.contains("of 502 events match"), "{filtered}");
        // A filter error is scoped, and stray options are rejected.
        assert!(run(&[
            "trace".into(),
            "stats".into(),
            golden.clone(),
            "--where=bogus=3".into(),
        ])
        .unwrap_err()
        .0
        .contains("--where:"));
        assert!(run(&[
            "trace".into(),
            "stats".into(),
            golden,
            "--frobnicate".into()
        ])
        .unwrap_err()
        .0
        .contains("--where=EXPR"));
    }

    #[test]
    fn trace_timeline_where_filter() {
        let golden = golden_path();
        let full = run(&[
            "trace".into(),
            "timeline".into(),
            "13".into(),
            golden.clone(),
        ])
        .unwrap();
        let filtered = run(&[
            "trace".into(),
            "timeline".into(),
            "13".into(),
            golden,
            "--where=kind=served".into(),
        ])
        .unwrap();
        assert!(filtered.contains("matching --where"), "{filtered}");
        assert!(
            filtered.lines().count() < full.lines().count(),
            "filter kept everything:\n{filtered}"
        );
        for line in filtered.lines().filter(|l| l.contains("\"ev\"")) {
            assert!(line.contains("job_served"), "{line}");
        }
    }

    #[test]
    fn progress_force_survives_instant_runs() {
        // Zero- and one-event runs finish in ~0 ticks; the ETA math must
        // not divide by zero and the run must still report correctly.
        let out = run(&argv(
            "simulate point:grid=6,demand=0 --threads=2 --progress=force",
        ))
        .unwrap();
        assert!(out.contains("served: 0/0"), "{out}");
        let out = run(&argv(
            "simulate point:grid=6,demand=1 --threads=2 --progress=force",
        ))
        .unwrap();
        assert!(out.contains("served: 1/1"), "{out}");
    }

    #[test]
    fn trace_profile_on_profile_only_trace() {
        // A trace holding nothing but round_profile samples (no protocol
        // events at all) must still render the per-worker table.
        let path = std::env::temp_dir().join("cmvrp_cli_profile_only.jsonl");
        std::fs::write(
            &path,
            "{\"ev\":\"round_profile\",\"round\":0,\"worker\":0,\"workers\":2,\"busy_ns\":800,\"barrier_wait_ns\":100,\"merge_ns\":50,\"sink_ns\":50,\"events\":4,\"steals\":0}\n\
             {\"ev\":\"round_profile\",\"round\":0,\"worker\":1,\"workers\":2,\"busy_ns\":600,\"barrier_wait_ns\":300,\"merge_ns\":0,\"sink_ns\":0,\"events\":2,\"steals\":1}\n",
        )
        .unwrap();
        let out = run(&[
            "trace".into(),
            "profile".into(),
            path.to_str().unwrap().into(),
        ])
        .unwrap();
        assert!(out.contains("2 workers"), "{out}");
        assert!(out.contains("util%"), "{out}");
        let _ = std::fs::remove_file(&path);
    }

    /// A scratch directory for checkpoint tests, cleaned up by the caller.
    fn ckpt_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cmvrp_cli_ckpt_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn checkpoint_flag_validation_names_alternatives() {
        // Cadence without a file to write to.
        let err = run(&argv(
            "simulate point:grid=9,demand=30 --threads=2 --checkpoint-every=2",
        ))
        .unwrap_err();
        assert!(err.0.contains("--checkpoint=FILE"), "{err}");
        assert!(err.0.contains("drop --checkpoint-every"), "{err}");
        // Resume from a file that does not exist.
        let err = run(&argv(
            "simulate point:grid=9,demand=30 --resume-from=/nonexistent/run.cmvc",
        ))
        .unwrap_err();
        assert!(err.0.contains("no such checkpoint file"), "{err}");
        assert!(err.0.contains("--checkpoint="), "{err}");
        assert!(err.0.contains("drop --resume-from"), "{err}");
    }

    #[test]
    fn resume_rejects_mismatched_threads() {
        let dir = ckpt_dir("mismatch");
        let ckpt = dir.join("run.cmvc");
        let out = run(&[
            "simulate".into(),
            "point:grid=12,demand=120".into(),
            "--threads=2".into(),
            "--stop-at-round=3".into(),
            format!("--checkpoint={}", ckpt.display()),
        ])
        .unwrap();
        assert!(out.contains("snapshot(s)"), "{out}");
        let base = vec![
            "simulate".to_string(),
            "point:grid=12,demand=120".to_string(),
            format!("--resume-from={}", ckpt.display()),
        ];
        let mut args = base.clone();
        args.push("--threads=4".into());
        let err = run(&args).unwrap_err();
        assert!(err.0.contains("--threads=4 disagrees"), "{err}");
        assert!(err.0.contains("--threads=2"), "{err}");
        assert!(err.0.contains("drop --threads"), "{err}");
        // Restating the checkpoint's own shape is fine.
        let mut args = base.clone();
        args.push("--threads=2".into());
        assert!(run(&args).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_refuses_a_checkpoint_that_does_not_fit_the_run() {
        // The round-4 golden with shard 1 edited six ways that keep the
        // fingerprint: each is refused naming the shard (or, for the delay
        // histogram, the frame) and the record — an error, exit 2 from
        // `main` — never a panic.
        let golden = include_bytes!("../../../tests/data/golden_clusters_round4.cmvc");
        let ckpt = cmvrp_ckpt::decode_checkpoint(golden).unwrap();
        let id = ckpt.shards[1].vehicles[0].id;
        let mut bounds = cmvrp_obs::DEFAULT_BUCKETS.to_vec();
        bounds.push(8192);
        let edit = |f: &dyn Fn(&mut cmvrp_engine::ShardCheckpoint)| {
            let mut edited = ckpt.clone();
            f(&mut edited.shards[1]);
            edited
        };
        let cases = [
            (
                edit(&|s| s.vehicles[0].neighbors.push(1_000_000)),
                format!("shard 1: vehicle {id}: neighbor 1000000 is not a vehicle"),
            ),
            (
                edit(&|s| s.vehicles[0].pos.push(0)),
                format!("shard 1: vehicle {id}: position has 3 coordinates, not 2"),
            ),
            (
                edit(&|s| s.vehicles[0].pos = vec![100, 100]),
                format!("shard 1: vehicle {id}: position (100,100) lies outside"),
            ),
            (
                edit(&|s| s.cubes[0].push(0)),
                "has 3 coordinates, not 2".to_string(),
            ),
            (
                edit(&|s| s.pair_active[0].2 = 1_000_000),
                "vehicle 1000000 is not a vehicle of this shard".to_string(),
            ),
            (
                edit(&|s| s.transport.delay_hist = cmvrp_obs::Histogram::with_bounds(&bounds)),
                "frame 3 at byte".to_string(),
            ),
        ];
        let dir = ckpt_dir("misfit");
        for (i, (edited, want)) in cases.iter().enumerate() {
            let path = dir.join(format!("edit{i}.cmvc"));
            std::fs::write(&path, cmvrp_ckpt::encode_checkpoint(edited)).unwrap();
            let err = run(&[
                "simulate".into(),
                "clusters:grid=12,k=3,jobs=180,seed=9".into(),
                format!("--resume-from={}", path.display()),
            ])
            .unwrap_err();
            assert!(err.0.contains(want), "edit {i}: {err}");
            if i < 5 {
                assert!(err.0.contains("checkpoint does not fit this run"), "{err}");
            } else {
                assert!(err.0.contains("delay histogram: 15 bucket counts"), "{err}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stitched_head_and_tail_traces_equal_the_uninterrupted_run() {
        let dir = ckpt_dir("stitch");
        let (full, head, tail, ckpt) = (
            dir.join("full.jsonl"),
            dir.join("head.jsonl"),
            dir.join("tail.jsonl"),
            dir.join("run.cmvc"),
        );
        let workload = "clusters:grid=12,k=3,jobs=180,seed=9";
        let full_out = run(&[
            "simulate".into(),
            workload.into(),
            "--threads=2".into(),
            format!("--trace-jsonl={}", full.display()),
        ])
        .unwrap();
        let head_out = run(&[
            "simulate".into(),
            workload.into(),
            "--threads=2".into(),
            "--stop-at-round=4".into(),
            format!("--checkpoint={}", ckpt.display()),
            format!("--trace-jsonl={}", head.display()),
        ])
        .unwrap();
        assert!(head_out.contains("last at round 4"), "{head_out}");
        let tail_out = run(&[
            "simulate".into(),
            workload.into(),
            format!("--resume-from={}", ckpt.display()),
            format!("--trace-jsonl={}", tail.display()),
        ])
        .unwrap();
        assert!(tail_out.contains("resume: round 4"), "{tail_out}");
        // The resumed run ends with the same accounting as the full one.
        let report_of = |s: &str| {
            s.lines()
                .skip_while(|l| !l.starts_with("workload:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(report_of(&tail_out), report_of(&full_out));
        // Byte-level: head + tail == full, and the semantic oracle agrees.
        let stitched_bytes =
            [std::fs::read(&head).unwrap(), std::fs::read(&tail).unwrap()].concat();
        assert_eq!(stitched_bytes, std::fs::read(&full).unwrap());
        let stitched = dir.join("stitched.jsonl");
        std::fs::write(&stitched, &stitched_bytes).unwrap();
        let (_, status) = run_with_status(&[
            "trace".into(),
            "diff".into(),
            stitched.to_str().unwrap().into(),
            full.to_str().unwrap().into(),
        ])
        .unwrap();
        assert_eq!(status, 0);
        // And `ckpt inspect` summarizes the snapshot we resumed from.
        let out = run(&[
            "ckpt".into(),
            "inspect".into(),
            ckpt.to_str().unwrap().into(),
        ])
        .unwrap();
        assert!(out.contains("checkpoint at round 4"), "{out}");
        assert!(out.contains("written under: --threads=2\n"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ckpt_subcommand_usage_errors() {
        assert!(run(&argv("ckpt")).unwrap_err().0.contains("inspect"));
        assert!(run(&argv("ckpt inspect")).unwrap_err().0.contains("path"));
        let err = run(&argv("ckpt bogus")).unwrap_err();
        assert!(err.0.contains("unknown ckpt subcommand"), "{err}");
        // A trace handed to `ckpt inspect` is a scoped format error.
        let path = std::env::temp_dir().join("cmvrp_cli_not_a_ckpt.bin");
        std::fs::write(&path, b"CMVB\x01").unwrap();
        let err = run(&[
            "ckpt".into(),
            "inspect".into(),
            path.to_str().unwrap().into(),
        ])
        .unwrap_err();
        assert!(err.0.contains("bad magic"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn campaign_usage_errors() {
        assert!(run(&argv("campaign"))
            .unwrap_err()
            .0
            .contains("run|status|retry-dead"));
        assert!(run(&argv("campaign bogus"))
            .unwrap_err()
            .0
            .contains("unknown campaign subcommand"));
        assert!(run(&argv("campaign run")).unwrap_err().0.contains("spec"));
        assert!(run(&argv("campaign status"))
            .unwrap_err()
            .0
            .contains("directory"));
        let err = run(&argv("campaign run /nonexistent.spec")).unwrap_err();
        assert!(err.0.contains("cannot read campaign spec"), "{err}");
    }
}
