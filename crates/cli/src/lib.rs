#![warn(missing_docs)]

//! Command-line interface for the CMVRP reproduction.
//!
//! Subcommands (see `cmvrp help`):
//!
//! * `solve` — compute the Chapter 2 quantities (`ω_c`, `ω*`,
//!   Algorithm 1, the Lemma 2.2.5 plan) for a workload;
//! * `simulate` — replay the workload through the Chapter 3 on-line
//!   protocol and report the Theorem 1.4.2 accounting, optionally writing
//!   a JSONL event trace (`--trace-jsonl`) and a metrics table
//!   (`--metrics`);
//! * `replay` — rebuild the run's summary from a recorded trace alone;
//! * `trace` — trace analytics: `check` (invariant monitors, violations
//!   carry their causal chain), `stats` (summary counters), `timeline
//!   <proc>` (per-process ledger with derived Lamport clocks), `spans`
//!   (phase-span aggregation), `convert` (JSONL ↔ binary, lossless),
//!   `profile` (flight-recorder breakdown of a `--profile` run), `diff`
//!   (first semantic divergence between two traces, exit code 1 when they
//!   differ), `query` (filter events with a small expression language),
//!   `explain` (happens-before chain leading to a chosen event);
//! * `ckpt inspect` — summarize a `CMVC` checkpoint written by `simulate
//!   --checkpoint` (see `cmvrp-ckpt`); `simulate --resume-from` continues
//!   a run from one with a byte-identical trace tail;
//! * `campaign` — run a spec'd panel of simulations with per-run
//!   checkpoints, bounded-backoff retries from the last checkpoint, and a
//!   dead-letter list (`run`, `status`, `retry-dead`);
//! * `scenario` — the declarative workload surface: `check` validates a
//!   scenario file, `run` executes it (honoring its `[faults]` script via
//!   crash+resume) and emits a summary table comparing the paper bounds,
//!   the literature baselines from `[report]`, and the protocol's cost;
//! * `workloads` — list the built-in workload shapes.
//!
//! Every trace-reading subcommand accepts both encodings transparently:
//! files are sniffed by the binary format's magic bytes and decoded back
//! to the canonical event stream before analysis.
//!
//! Workloads are specified either inline as `shape:param=value,...`, e.g.
//! `point:grid=11,demand=60` or `clusters:grid=12,k=3,jobs=200,seed=7`, or
//! as `@path.toml` naming a scenario file — every place that takes a
//! workload (simulate, campaign `workload =` lines, the serve wire `open`
//! op) accepts both through the shared [`Scenario`] parser. Argument
//! parsing is hand-rolled (the workspace takes no CLI dependencies);
//! [`run`] is the testable entry point.

use cmvrp_core::Instance;
use cmvrp_engine::{
    CheckScope, CheckSummary, CheckpointPolicy, EngineCheckpoint, ExecConfig, Schedule,
};
use cmvrp_obs::{BinSink, Event, JsonlSink, Metrics, Sink};
use cmvrp_online::{OnlineConfig, OnlineReport};
use cmvrp_scenario::{baselines, Baseline, Scenario};
use cmvrp_workloads::{JobSequence, WorkloadConfig};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Errors surfaced to the user with exit code 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for UsageError {}

/// The full `trace` subcommand set — the single source for the usage
/// screen and the dispatch errors (a test asserts they stay in sync).
const TRACE_SUBCOMMANDS: [&str; 9] = [
    "check", "stats", "timeline", "spans", "convert", "profile", "diff", "query", "explain",
];

fn usage() -> String {
    "cmvrp — Capacitated Multivehicle Routing Problem (Gao, 2008)\n\
     \n\
     USAGE:\n\
       cmvrp solve <workload>            off-line bounds + verified plan\n\
       cmvrp simulate <workload> [opts]  run the on-line protocol\n\
       cmvrp replay <trace>              summarize a recorded event trace\n\
       cmvrp trace check <trace>         validate a trace against the invariant monitors\n\
       cmvrp trace stats <trace>         trace summary counters (superset of replay)\n\
       cmvrp trace timeline <p> <trace>  event ledger of process <p> with Lamport clocks\n\
       cmvrp trace spans <trace>         aggregate wall-clock phase spans\n\
       cmvrp trace convert <in> <out>    convert a trace JSONL <-> binary (lossless,\n\
                                         direction inferred from the input's encoding)\n\
       cmvrp trace profile <trace>       flight-recorder breakdown of a --profile run\n\
       cmvrp trace diff <a> <b>          first semantic divergence between two traces\n\
                                         (exit 0 identical, 1 divergent; --context=N)\n\
       cmvrp trace query <expr> <trace>  filter events with a query expression, e.g.\n\
                                         'kind=delivered and proc=7 and t>=12'\n\
       cmvrp trace explain <sel> <trace> causal chain leading to an event; <sel> is\n\
                                         job:<seq>, proc:<id>, or line:<n>\n\
       cmvrp ckpt inspect <file>         summarize a CMVC checkpoint file\n\
       cmvrp campaign run <spec>         run a panel of simulations with per-run\n\
                                         checkpoints, retries from the last\n\
                                         checkpoint, and a dead-letter list\n\
                                         (exit 1 when any run ends up dead)\n\
       cmvrp campaign status <dir>       summarize a campaign's state file\n\
                                         (exit 1 when the dead-letter list is\n\
                                         non-empty)\n\
       cmvrp campaign retry-dead <spec>  re-run dead-letter runs with a fresh\n\
                                         retry budget, resuming from their\n\
                                         checkpoints\n\
       cmvrp serve listen [opts]         host engine sessions over TCP behind the\n\
                                         line-delimited JSON protocol (ops: open,\n\
                                         inject, advance, query, trace, close)\n\
       cmvrp serve send <addr>           drive a server from stdin: one request\n\
                                         line at a time, responses to stdout\n\
       cmvrp scenario check <file>       parse + summarize a scenario file\n\
       cmvrp scenario run <file> [opts]  execute a scenario file: protocol run\n\
                                         (with its [faults] crash+resume script)\n\
                                         plus the [report] baselines, as a\n\
                                         summary table of paper bound vs\n\
                                         baseline cost vs protocol cost\n\
       cmvrp show <workload>             render the demand map as ASCII\n\
       cmvrp experiment <id>             regenerate a thesis experiment (e1..e16, f1, g1, g2)\n\
       cmvrp sweep <shape> <d1> <d2> ..  omega* scaling across demands (point|line)\n\
       cmvrp workloads                   list workload shapes\n\
       cmvrp help                        this message\n\
     \n\
     WORKLOADS (inline spec or @file):\n\
       point:grid=N,demand=D\n\
       line:grid=N,demand=D\n\
       square:grid=N,a=A,demand=D\n\
       uniform:grid=N,jobs=J,seed=S\n\
       clusters:grid=N,k=K,jobs=J,seed=S\n\
       @scenario.toml    a scenario file ([substrate]/[demand]/[arrivals]/\n\
                         [faults]/[report], see README \"Scenarios\"); accepted\n\
                         everywhere a workload spec is: simulate, campaign\n\
                         workload= lines, and the serve wire open op\n\
     \n\
     SCENARIO RUN OPTIONS:\n\
       --seed=S        run seed (default 1; also the default arrival seed)\n\
       --capacity=W    override the Lemma 3.3.1 provisioning\n\
       --threads=N     sharded engine (defaults to 2 when [faults] are\n\
                       scripted, since crash+resume needs sessions)\n\
       --schedule=P    shard scheduling policy (static|steal|rebalance)\n\
       --check         verify the invariant monitors inline\n\
       --trace-jsonl=P stream the run's events to path P\n\
     \n\
     SIMULATE OPTIONS:\n\
       --seed=S        message-delay seed (default 1)\n\
       --capacity=W    override the Lemma 3.3.1 provisioning\n\
       --threads=N     sparse sharded parallel engine on up to N workers;\n\
                       required above the dense engine's grid-volume limit,\n\
                       traces are byte-identical for every N\n\
       --schedule=P    shard scheduling policy for --threads=N:\n\
                       static (fixed round-robin ownership, the default),\n\
                       steal (idle workers steal ready shards within a\n\
                       round), rebalance (between-round repartition by\n\
                       active-cube count, plus stealing); traces are\n\
                       byte-identical for every policy\n\
       --monitored     enable the §3.2.5 heartbeat ring (sequential engine\n\
                       only — not combinable with --threads; --check and\n\
                       --trace-jsonl work on every engine)\n\
       --trace-jsonl P stream every event as JSON lines to path P\n\
       --trace-bin P   stream every event in the length-prefixed binary\n\
                       format to path P (same events, ~5x the write\n\
                       throughput; decode with `cmvrp trace convert`);\n\
                       not combinable with --trace-jsonl\n\
       --profile       flight recorder (needs --threads): append one\n\
                       round_profile sample per worker per round to the\n\
                       trace — busy/barrier/merge/sink nanoseconds, event\n\
                       and steal counts; analyze with `cmvrp trace profile`\n\
       --progress      live progress line on stderr (needs --threads and a\n\
                       terminal; --progress=force paints without one)\n\
       --checkpoint=F  write a CMVC snapshot of the run to F at round\n\
                       barriers, atomically (needs --threads); resume with\n\
                       --resume-from, inspect with `cmvrp ckpt inspect`\n\
       --checkpoint-every=R  snapshot every R rounds (default 1; counts\n\
                       absolute rounds, so a resumed run keeps the cadence;\n\
                       needs --checkpoint)\n\
       --stop-at-round=K  stop after round K (needs --threads); with\n\
                       --checkpoint the final snapshot lands at K\n\
       --resume-from=F continue a run from checkpoint F; the resumed trace\n\
                       tail is byte-identical to the uninterrupted run's,\n\
                       so concatenating head and tail traces equals a\n\
                       one-shot trace (verify with `cmvrp trace diff`);\n\
                       --threads/--schedule default to the checkpoint's\n\
                       values and may not disagree with them\n\
       --metrics       print the always-on metrics registry\n\
       --check         verify the invariant monitors inline while the run\n\
                       streams (with --threads: per-shard monitors plus\n\
                       merge-time cross-shard monitors); any violation\n\
                       fails the run naming the event and invariant\n\
     \n\
     TRACE CHECK OPTIONS:\n\
       --capacity=W    battery capacity for traces without fleet_provisioned\n\
     \n\
     TRACE ANALYTICS OPTIONS:\n\
       --where=EXPR    stats/timeline: restrict to events matching a query\n\
                       expression (same language as `cmvrp trace query`)\n\
       --context=N     diff: surrounding events to show around the first\n\
                       divergence (default 3)\n\
     \n\
     CAMPAIGN OPTIONS:\n\
       --dir=D         checkpoint + state directory (default <spec>.campaign)\n\
       --bin=P         cmvrp binary to spawn per run (default: this\n\
                       executable)\n\
     \n\
     SERVE LISTEN OPTIONS:\n\
       --addr=H:P      bind address (default 127.0.0.1:7077; port 0 picks a\n\
                       free port — the chosen address is printed first)\n\
       --max-sessions=N  sessions one connection may hold open (default 16)\n\
       --connections=N   serve N connections then exit (default 0: forever)\n"
        .to_string()
}

/// Parses a workload spec — inline `shape:key=value,...` or a
/// `@path.toml` scenario file — into a [`Scenario`]. The parser itself is
/// [`Scenario::from_spec`], shared with campaign `workload =` lines and
/// the serve wire `open` op, so all three frontends reject unknown
/// shapes/keys with identical errors; here they gain the CLI's help
/// pointer.
pub fn parse_workload(spec: &str) -> Result<Scenario, UsageError> {
    Scenario::from_spec(spec).map_err(|e| UsageError(format!("{e} (see `cmvrp help`)")))
}

fn cmd_sweep(shape: &str, demands: &[String]) -> Result<String, UsageError> {
    use cmvrp_core::omega_star;
    use cmvrp_util::table::fmt_f64;
    use cmvrp_util::Table;
    if demands.is_empty() {
        return Err(UsageError("sweep needs at least one demand value".into()));
    }
    let parsed: Result<Vec<u64>, _> = demands.iter().map(|d| d.parse::<u64>()).collect();
    let parsed = parsed.map_err(|_| UsageError("demands must be integers".into()))?;
    let mut table = Table::new(vec!["d", "omega*", "growth vs prev"]);
    let mut prev: Option<f64> = None;
    for &d in &parsed {
        let cfg = match shape {
            "point" => WorkloadConfig::Point {
                grid: 41,
                demand: d,
            },
            "line" => WorkloadConfig::Line {
                grid: 30,
                demand: d,
            },
            other => {
                return Err(UsageError(format!(
                    "sweep supports point|line, not {other:?}"
                )))
            }
        };
        let (bounds, demand) = cfg.generate().map_err(|e| UsageError(e.to_string()))?;
        let star = omega_star(&bounds, &demand).value.to_f64();
        let growth = prev
            .map(|p| format!("{:.3}", star / p))
            .unwrap_or_else(|| "-".into());
        table.row(vec![d.to_string(), fmt_f64(star), growth]);
        prev = Some(star);
    }
    let law = match shape {
        "point" => "expect cube-root growth: 8x demand -> ~2x omega*",
        _ => "expect square-root growth: 4x demand -> ~2x omega*",
    };
    Ok(format!("{table}{law}\n"))
}

fn cmd_experiment(id: &str) -> Result<String, UsageError> {
    use cmvrp_bench as exp;
    let out = match id {
        "e1" => exp::e1(&[4, 8, 16, 32]),
        "e2" => exp::e2(&[8, 32, 128, 512]),
        "e3" => exp::e3(&[100, 800, 6400]),
        "e4" => exp::e4(&[1, 2, 3]),
        "e5" => exp::e5(&exp::default_workloads()),
        "e6" => exp::e6(&[10, 11, 12, 13, 14]),
        "e7" => exp::e7(&exp::default_workloads()),
        "e8" => exp::e8(),
        "e9" => exp::e9(&[2, 4, 8, 16]),
        "e10" => exp::e10(),
        "e11" => exp::e11(&[10, 100, 1000, 10000]),
        "e12" => exp::e12(),
        "e13" => exp::e13(),
        "e14" => exp::e14(&exp::default_workloads()),
        "e15" => exp::e15(),
        "e16" => exp::e16(),
        "f1" => exp::f1(),
        "g1" => exp::g1(),
        "g2" => exp::g2(),
        other => {
            return Err(UsageError(format!(
                "unknown experiment {other:?}; known: e1..e16, f1, g1"
            )))
        }
    };
    Ok(out.to_string())
}

fn cmd_show(spec: &str) -> Result<String, UsageError> {
    let sc = parse_workload(spec)?;
    let (bounds, demand) = sc
        .demand
        .generate()
        .map_err(|e| UsageError(e.to_string()))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload: {} (total demand {})",
        sc.label(),
        demand.total()
    );
    out.push_str(&cmvrp_grid::render_demand(&bounds, &demand));
    Ok(out)
}

fn cmd_solve(spec: &str) -> Result<String, UsageError> {
    let sc = parse_workload(spec)?;
    let (bounds, demand) = sc
        .demand
        .generate()
        .map_err(|e| UsageError(e.to_string()))?;
    let inst = Instance::new(bounds, demand);
    let mut out = String::new();
    let _ = writeln!(out, "workload: {}", sc.label());
    let _ = writeln!(out, "total demand: {}", inst.demand().total());
    let _ = writeln!(out, "omega_c (Cor 2.2.7): {}", inst.omega_c());
    let star = inst.omega_star();
    let _ = writeln!(out, "omega*  (Thm 1.4.1): {}", star.value);
    let _ = writeln!(out, "Algorithm 1 estimate: {}", inst.approx_woff());
    let (lo, hi) = inst.woff_bounds();
    let _ = writeln!(out, "Woff bounds: {lo} <= Woff <= {hi}");
    let plan = inst
        .plan_offline()
        .map_err(|e| UsageError(format!("planning failed: {e}")))?;
    let check = inst.verify(&plan);
    let _ = writeln!(
        out,
        "plan: {} vehicles, max energy {}, valid: {}",
        plan.len(),
        check.max_energy,
        check.is_valid()
    );
    Ok(out)
}

/// One simulate run, streaming events into the caller's sink. The
/// [`ExecConfig`] names the engine (dense sequential without worker
/// threads, sparse sharded with them), the scheduling policy, and whether
/// the run is verified inline — in which case the returned summary holds
/// the verdict.
fn run_simulation(
    bounds: cmvrp_grid::GridBounds<2>,
    jobs: &JobSequence<2>,
    online: OnlineConfig,
    exec: ExecConfig,
    sink: &mut dyn Sink,
    resume: Option<&EngineCheckpoint>,
    observer: &mut dyn FnMut(EngineCheckpoint),
) -> Result<(OnlineReport, Metrics, Option<CheckSummary>), UsageError> {
    let run = exec
        .execute_with_checkpoints(bounds, jobs, online, sink, resume, observer)
        .map_err(|e| UsageError(e.to_string()))?;
    Ok((run.report, run.metrics, run.check))
}

fn render_report(out: &mut String, label: &str, report: &OnlineReport) {
    let _ = writeln!(out, "workload: {label}");
    let _ = writeln!(out, "capacity: {}", report.capacity);
    let _ = writeln!(
        out,
        "served: {}/{}",
        report.served,
        report.served + report.unserved
    );
    let _ = writeln!(out, "max energy used: {}", report.max_energy_used);
    let _ = writeln!(
        out,
        "replacements: {} (failed: {})",
        report.replacements, report.failed_replacements
    );
    let _ = writeln!(out, "messages: {}", report.messages);
    let _ = writeln!(
        out,
        "msg delay: mean {:.2}, max {} (queue depth <= {})",
        report.mean_msg_delay, report.max_msg_delay, report.max_queue_depth
    );
    let _ = writeln!(
        out,
        "waves: {} diffusions, {} heartbeat misses",
        report.diffusions, report.heartbeat_misses
    );
    let _ = writeln!(
        out,
        "omega_c: {} (cube side {})",
        report.omega_c, report.cube_side
    );
}

fn render_metrics(out: &mut String, metrics: &Metrics) {
    let mut table = cmvrp_util::Table::new(vec!["metric", "value"]);
    for (name, value) in metrics.rows() {
        table.row(vec![name, value]);
    }
    let _ = writeln!(out, "\nmetrics:");
    let _ = write!(out, "{table}");
}

/// Renders the verdict of an inline check: a one-line all-clear, or a
/// [`UsageError`] naming each offending event's location and invariant.
/// `source` prefixes merged-stream locations (the trace path, or `"event"`
/// when the run was not traced to disk); shard-scoped violations count
/// that shard's local events instead.
fn check_verdict(summary: &CheckSummary, source: &str) -> Result<String, UsageError> {
    if summary.is_clean() {
        return Ok(format!(
            "check: {} events validated, all invariants hold\n",
            summary.events
        ));
    }
    let mut msg = format!(
        "check FAILED: {} violation(s) in {} events\n",
        summary.violations.len(),
        summary.events
    );
    for sv in summary.violations.iter().take(10) {
        let v = &sv.violation;
        let _ = match sv.scope {
            CheckScope::Merged => {
                writeln!(msg, "  {source}:{}: [{}] {}", v.line, v.invariant, v.detail)
            }
            CheckScope::Shard(shard) => writeln!(
                msg,
                "  shard {shard} event {}: [{}] {}",
                v.line, v.invariant, v.detail
            ),
        };
    }
    if summary.violations.len() > 10 {
        let _ = writeln!(msg, "  ... and {} more", summary.violations.len() - 10);
    }
    Err(UsageError(msg))
}

fn cmd_simulate(spec: &str, opts: &[String]) -> Result<String, UsageError> {
    let sc = parse_workload(spec)?;
    if !sc.faults.is_empty() {
        return Err(UsageError(format!(
            "scenario {:?} scripts faults (crash_at_rounds); `cmvrp simulate` \
             runs fault-free — supported alternatives: execute the script \
             with `cmvrp scenario run`, or drop the [faults] section",
            sc.label()
        )));
    }
    let mut online = OnlineConfig::default();
    let mut want_metrics = false;
    let mut check = false;
    let mut trace: Option<String> = None;
    let mut trace_bin: Option<String> = None;
    let mut profile = false;
    let mut progress = false;
    let mut threads: Option<usize> = None;
    let mut schedule: Option<Schedule> = None;
    let mut checkpoint: Option<String> = None;
    let mut checkpoint_every: Option<u64> = None;
    let mut stop_at: Option<u64> = None;
    let mut resume_from: Option<String> = None;
    let mut i = 0;
    while i < opts.len() {
        let opt = &opts[i];
        if let Some(v) = opt.strip_prefix("--threads=") {
            let n: usize = v
                .parse()
                .map_err(|_| UsageError(format!("bad thread count {v:?}")))?;
            if n == 0 {
                return Err(UsageError("--threads must be at least 1".into()));
            }
            threads = Some(n);
        } else if let Some(v) = opt.strip_prefix("--schedule=") {
            schedule = Some(v.parse().map_err(UsageError)?);
        } else if let Some(v) = opt.strip_prefix("--checkpoint=") {
            checkpoint = Some(v.to_string());
        } else if let Some(v) = opt.strip_prefix("--checkpoint-every=") {
            let r: u64 = v
                .parse()
                .map_err(|_| UsageError(format!("bad checkpoint cadence {v:?}")))?;
            if r == 0 {
                return Err(UsageError("--checkpoint-every must be at least 1".into()));
            }
            checkpoint_every = Some(r);
        } else if let Some(v) = opt.strip_prefix("--stop-at-round=") {
            stop_at = Some(
                v.parse()
                    .map_err(|_| UsageError(format!("bad round number {v:?}")))?,
            );
        } else if let Some(v) = opt.strip_prefix("--resume-from=") {
            resume_from = Some(v.to_string());
        } else if let Some(v) = opt.strip_prefix("--seed=") {
            online.seed = v
                .parse()
                .map_err(|_| UsageError(format!("bad seed {v:?}")))?;
        } else if let Some(v) = opt.strip_prefix("--capacity=") {
            online.capacity_override = Some(
                v.parse()
                    .map_err(|_| UsageError(format!("bad capacity {v:?}")))?,
            );
        } else if opt == "--monitored" {
            online.monitored = true;
        } else if opt == "--metrics" {
            want_metrics = true;
        } else if opt == "--check" {
            check = true;
        } else if let Some(v) = opt.strip_prefix("--trace-jsonl=") {
            trace = Some(v.to_string());
        } else if opt == "--trace-jsonl" {
            i += 1;
            let path = opts
                .get(i)
                .ok_or_else(|| UsageError("--trace-jsonl needs a path".into()))?;
            trace = Some(path.clone());
        } else if let Some(v) = opt.strip_prefix("--trace-bin=") {
            trace_bin = Some(v.to_string());
        } else if opt == "--trace-bin" {
            i += 1;
            let path = opts
                .get(i)
                .ok_or_else(|| UsageError("--trace-bin needs a path".into()))?;
            trace_bin = Some(path.clone());
        } else if opt == "--profile" {
            profile = true;
        } else if opt == "--progress" {
            use std::io::IsTerminal;
            if !std::io::stderr().is_terminal() {
                return Err(UsageError(
                    "--progress paints a live line on stderr and needs a \
                     terminal; supported alternatives: --progress=force to \
                     paint anyway (e.g. into a log), or --profile to record \
                     per-round samples into the trace for offline analysis \
                     with `cmvrp trace profile`"
                        .into(),
                ));
            }
            progress = true;
        } else if opt == "--progress=force" {
            progress = true;
        } else {
            return Err(UsageError(format!("unknown option {opt:?}")));
        }
        i += 1;
    }
    if trace.is_some() && trace_bin.is_some() {
        return Err(UsageError(
            "--trace-jsonl and --trace-bin record the same event stream; \
             pick one encoding (either converts to the other losslessly \
             with `cmvrp trace convert <in> <out>`)"
                .into(),
        ));
    }
    if checkpoint_every.is_some() && checkpoint.is_none() {
        return Err(UsageError(
            "--checkpoint-every sets a snapshot cadence but nothing names \
             the snapshot file; supported alternatives: add \
             --checkpoint=FILE to write snapshots there, or drop \
             --checkpoint-every"
                .into(),
        ));
    }
    // Resuming inherits the execution shape from the checkpoint unless the
    // flags restate it; restating it *differently* is rejected here (the
    // result would be sound — traces are thread-invariant — but almost
    // certainly unintended).
    let resume: Option<EngineCheckpoint> = match &resume_from {
        None => None,
        Some(path) => {
            if !Path::new(path).exists() {
                return Err(UsageError(format!(
                    "--resume-from={path}: no such checkpoint file; supported \
                     alternatives: write one first with `cmvrp simulate ... \
                     --threads=N --checkpoint={path}`, or drop --resume-from \
                     to start the run fresh"
                )));
            }
            let ckpt = cmvrp_ckpt::read_checkpoint(Path::new(path)).map_err(UsageError)?;
            match threads {
                None => threads = Some(ckpt.threads as usize),
                Some(n) if n as u64 == ckpt.threads => {}
                Some(n) => {
                    return Err(UsageError(format!(
                        "--threads={n} disagrees with the checkpoint, which \
                         was written under --threads={}; supported \
                         alternatives: drop --threads to inherit it from the \
                         checkpoint, or start a fresh run (without \
                         --resume-from) under the new worker count",
                        ckpt.threads
                    )))
                }
            }
            match schedule {
                None => schedule = Some(ckpt.schedule),
                Some(s) if s == ckpt.schedule => {}
                Some(s) => {
                    return Err(UsageError(format!(
                        "--schedule={s} disagrees with the checkpoint, which \
                         was written under --schedule={}; supported \
                         alternatives: drop --schedule to inherit it from \
                         the checkpoint, or start a fresh run (without \
                         --resume-from) under the new policy",
                        ckpt.schedule
                    )))
                }
            }
            Some(ckpt)
        }
    };
    let mut exec = ExecConfig::new()
        .schedule(schedule.unwrap_or_default())
        .check(check)
        .profile(profile)
        .progress(progress)
        .checkpoint(CheckpointPolicy {
            every: checkpoint.as_ref().map(|_| checkpoint_every.unwrap_or(1)),
            stop_at,
        });
    if let Some(n) = threads {
        exec = exec.threads(n);
    }
    exec.validate().map_err(|e| UsageError(e.to_string()))?;
    // The scenario layer owns workload materialization: with the default
    // batch arrivals this is byte-for-byte the old generate-then-shuffle
    // path, so flag-built and scenario-file runs stay trace-identical.
    let (bounds, _, jobs) = sc
        .generate(online.seed)
        .map_err(|e| UsageError(e.to_string()))?;
    let mut out = String::new();
    if let (Some(ckpt), Some(path)) = (&resume, &resume_from) {
        let _ = writeln!(
            out,
            "resume: round {} from {path} ({} trace events behind us)",
            ckpt.rounds_completed, ckpt.trace_events
        );
    }
    // The checkpoint observer: write each snapshot atomically, remembering
    // the first I/O failure (surfaced after the run — the run itself is
    // not aborted by a bad disk).
    let mut snapshots = 0u64;
    let mut last_round = 0u64;
    let mut ckpt_io: Option<String> = None;
    let ckpt_file = checkpoint.clone();
    let mut observer = |c: EngineCheckpoint| {
        let Some(path) = &ckpt_file else { return };
        snapshots += 1;
        last_round = c.rounds_completed;
        if ckpt_io.is_none() {
            if let Err(e) = cmvrp_ckpt::write_checkpoint(Path::new(path), &c) {
                ckpt_io = Some(format!("checkpoint write to {path:?} failed: {e}"));
            }
        }
    };
    let resume_ref = resume.as_ref();
    let (report, metrics, summary) = match (&trace, &trace_bin) {
        (Some(path), None) => {
            let mut sink = JsonlSink::create(path)
                .map_err(|e| UsageError(format!("cannot create {path:?}: {e}")))?;
            let result = run_simulation(
                bounds,
                &jobs,
                online,
                exec,
                &mut sink,
                resume_ref,
                &mut observer,
            )?;
            let events = sink
                .finish()
                .map_err(|e| UsageError(format!("trace write to {path:?} failed: {e}")))?;
            let _ = writeln!(out, "trace: {events} events -> {path}");
            result
        }
        (None, Some(path)) => {
            let mut sink = BinSink::create(path)
                .map_err(|e| UsageError(format!("cannot create {path:?}: {e}")))?;
            let result = run_simulation(
                bounds,
                &jobs,
                online,
                exec,
                &mut sink,
                resume_ref,
                &mut observer,
            )?;
            let events = sink
                .finish()
                .map_err(|e| UsageError(format!("trace write to {path:?} failed: {e}")))?;
            let _ = writeln!(out, "trace: {events} events -> {path} (binary)");
            result
        }
        _ => run_simulation(
            bounds,
            &jobs,
            online,
            exec,
            &mut cmvrp_obs::NullSink,
            resume_ref,
            &mut observer,
        )?,
    };
    if let Some(e) = ckpt_io {
        return Err(UsageError(e));
    }
    if let Some(path) = &checkpoint {
        let _ = writeln!(
            out,
            "checkpoint: {snapshots} snapshot(s) -> {path} (last at round {last_round})"
        );
    }
    if let Some(summary) = &summary {
        out.push_str(&check_verdict(
            summary,
            trace.as_deref().or(trace_bin.as_deref()).unwrap_or("event"),
        )?);
    }
    render_report(&mut out, &sc.label(), &report);
    if want_metrics {
        render_metrics(&mut out, &metrics);
    }
    Ok(out)
}

/// Loads a scenario file for the `scenario` subcommands; the bare path
/// and the `@path` spec spelling are both accepted.
fn load_scenario(path: &str) -> Result<Scenario, UsageError> {
    let spec = match path.strip_prefix('@') {
        Some(_) => path.to_string(),
        None => format!("@{path}"),
    };
    Scenario::from_spec(&spec).map_err(UsageError)
}

/// Renders the descriptive header shared by `scenario check` and
/// `scenario run`.
fn render_scenario_header(out: &mut String, sc: &Scenario, jobs: u64) {
    let side = sc.side();
    let _ = writeln!(
        out,
        "substrate: {side}x{side} grid, {} vehicles",
        side * side
    );
    let _ = writeln!(out, "demand: {} ({jobs} jobs)", sc.demand.label());
    let _ = writeln!(out, "arrivals: {}", sc.arrivals.label());
    if sc.faults.is_empty() {
        let _ = writeln!(out, "faults: none");
    } else {
        let rounds: Vec<String> = sc
            .faults
            .crash_at_rounds
            .iter()
            .map(u64::to_string)
            .collect();
        let _ = writeln!(out, "faults: crash at rounds {}", rounds.join(", "));
    }
}

fn cmd_scenario_check(path: &str) -> Result<String, UsageError> {
    let sc = load_scenario(path)?;
    let (_, demand) = sc
        .demand
        .generate()
        .map_err(|e| UsageError(e.to_string()))?;
    let mut out = format!("scenario ok: {}\n", sc.label());
    render_scenario_header(&mut out, &sc, demand.total());
    let names: Vec<&str> = sc
        .report
        .baselines
        .iter()
        .map(|b| match b {
            Baseline::Becker => "becker",
            Baseline::Gn => "gn",
        })
        .collect();
    let _ = writeln!(
        out,
        "report: {}",
        if names.is_empty() {
            "protocol only".to_string()
        } else {
            names.join(", ")
        }
    );
    Ok(out)
}

/// `scenario run <file>`: one protocol run (honoring the `[faults]`
/// crash+resume script) and the `[report]` baselines over the same
/// instance, summarized as paper bound · baseline cost · protocol cost ·
/// ratio.
fn cmd_scenario_run(path: &str, opts: &[String]) -> Result<String, UsageError> {
    let sc = load_scenario(path)?;
    let mut online = OnlineConfig::default();
    let mut threads: Option<usize> = None;
    let mut schedule: Option<Schedule> = None;
    let mut check = false;
    let mut trace: Option<String> = None;
    for opt in opts {
        if let Some(v) = opt.strip_prefix("--seed=") {
            online.seed = v
                .parse()
                .map_err(|_| UsageError(format!("bad seed {v:?}")))?;
        } else if let Some(v) = opt.strip_prefix("--capacity=") {
            online.capacity_override = Some(
                v.parse()
                    .map_err(|_| UsageError(format!("bad capacity {v:?}")))?,
            );
        } else if let Some(v) = opt.strip_prefix("--threads=") {
            let n: usize = v
                .parse()
                .map_err(|_| UsageError(format!("bad thread count {v:?}")))?;
            if n == 0 {
                return Err(UsageError("--threads must be at least 1".into()));
            }
            threads = Some(n);
        } else if let Some(v) = opt.strip_prefix("--schedule=") {
            schedule = Some(v.parse().map_err(UsageError)?);
        } else if opt == "--check" {
            check = true;
        } else if let Some(v) = opt.strip_prefix("--trace-jsonl=") {
            trace = Some(v.to_string());
        } else {
            return Err(UsageError(format!(
                "unknown option {opt:?}; scenario run accepts --seed=S, \
                 --capacity=W, --threads=N, --schedule=P, --check, \
                 --trace-jsonl=P"
            )));
        }
    }
    // The fault script crashes and resumes sessions, which only exist on
    // the sharded engine.
    if !sc.faults.is_empty() && threads.is_none() {
        threads = Some(2);
    }
    let mut exec = ExecConfig::new()
        .schedule(schedule.unwrap_or_default())
        .check(check);
    if let Some(n) = threads {
        exec = exec.threads(n);
    }
    exec.validate().map_err(|e| UsageError(e.to_string()))?;
    let (bounds, demand, jobs) = sc
        .generate(online.seed)
        .map_err(|e| UsageError(e.to_string()))?;

    // The protocol run: one-shot when fault-free; with a fault script,
    // advance to each crash round, snapshot, tear the session down, and
    // resume from the snapshot — the same checkpoint/resume seams
    // `simulate --checkpoint/--resume-from` exercises across processes.
    let engine_err = |e: cmvrp_engine::EngineError| UsageError(e.to_string());
    let mut crashed_at: Vec<u64> = Vec::new();
    let mut run_all = |sink: &mut dyn Sink| -> Result<cmvrp_engine::Execution, UsageError> {
        if sc.faults.is_empty() {
            return exec
                .execute(bounds, &jobs, online, sink)
                .map_err(engine_err);
        }
        let mut session = exec.build(bounds, &jobs, online).map_err(engine_err)?;
        for &round in &sc.faults.crash_at_rounds {
            let done = session.rounds();
            if round > done {
                session.advance_rounds(round - done, sink);
            }
            let snapshot = session.snapshot();
            crashed_at.push(session.rounds());
            drop(session); // the scripted crash
            session = exec
                .resume_build(bounds, &jobs, online, &snapshot)
                .map_err(engine_err)?;
        }
        session.drain(sink);
        Ok(session.finish())
    };
    let mut out = String::new();
    let execution = match &trace {
        Some(path) => {
            let mut sink = JsonlSink::create(path)
                .map_err(|e| UsageError(format!("cannot create {path:?}: {e}")))?;
            let execution = run_all(&mut sink)?;
            let events = sink
                .finish()
                .map_err(|e| UsageError(format!("trace write to {path:?} failed: {e}")))?;
            let _ = writeln!(out, "trace: {events} events -> {path}");
            execution
        }
        None => run_all(&mut cmvrp_obs::NullSink)?,
    };

    let mut header = format!("scenario: {} ({path})\n", sc.label());
    render_scenario_header(&mut header, &sc, demand.total());
    if !crashed_at.is_empty() {
        let rounds: Vec<String> = crashed_at.iter().map(u64::to_string).collect();
        let _ = writeln!(
            header,
            "recovery: crashed + resumed from snapshot at rounds {}",
            rounds.join(", ")
        );
    }
    header.push_str(&out);
    let mut out = header;
    if let Some(summary) = &execution.check {
        out.push_str(&check_verdict(
            summary,
            trace.as_deref().unwrap_or("event"),
        )?);
    }

    // The comparison table: paper bounds from Chapter 2, the [report]
    // baselines, and the protocol's empirical cost — all on the same
    // demand instance.
    let report = &execution.report;
    let capacity = sc.report.capacity.unwrap_or(report.capacity).max(1);
    let fleet = sc
        .report
        .vehicles
        .unwrap_or_else(|| demand.total().div_ceil(capacity).max(1));
    let inst = Instance::new(bounds, demand.clone());
    let star = inst.omega_star().value;
    let ratio = |cost: u64, bound: f64| -> String {
        if bound <= 0.0 {
            "-".into()
        } else {
            format!("{:.2}x", cost as f64 / bound)
        }
    };
    let mut table = cmvrp_util::Table::new(vec!["quantity", "value", "vs bound"]);
    table.row(vec![
        "omega_c (Cor 2.2.7)".into(),
        inst.omega_c().to_string(),
        "-".into(),
    ]);
    table.row(vec![
        "omega* (Thm 1.4.1)".into(),
        star.to_string(),
        "-".into(),
    ]);
    for baseline in &sc.report.baselines {
        match baseline {
            Baseline::Becker => {
                let b = baselines::becker(&bounds, &demand, capacity);
                table.row(vec![
                    format!("becker tree-CVRP bound (Q={capacity})"),
                    b.lower_bound.to_string(),
                    "-".into(),
                ]);
                table.row(vec![
                    format!("becker tree-CVRP tours (n={})", b.tours),
                    b.tour_cost.to_string(),
                    ratio(b.tour_cost, b.lower_bound as f64),
                ]);
            }
            Baseline::Gn => {
                let g = baselines::gn_makespan(&bounds, &demand, capacity, fleet);
                table.row(vec![
                    format!("gn makespan bound (m={fleet})"),
                    g.lower_bound.to_string(),
                    "-".into(),
                ]);
                table.row(vec![
                    "gn makespan (sweep+LPT)".into(),
                    g.makespan.to_string(),
                    ratio(g.makespan, g.lower_bound as f64),
                ]);
            }
        }
    }
    table.row(vec![
        "protocol capacity W".into(),
        report.capacity.to_string(),
        ratio(report.capacity, star.to_f64()),
    ]);
    table.row(vec![
        "protocol max energy".into(),
        report.max_energy_used.to_string(),
        ratio(report.max_energy_used, star.to_f64()),
    ]);
    table.row(vec![
        "protocol served".into(),
        format!("{}/{}", report.served, report.served + report.unserved),
        "-".into(),
    ]);
    let _ = write!(out, "{table}");
    Ok(out)
}

fn cmd_scenario(args: &[String]) -> Result<String, UsageError> {
    match args.first().map(String::as_str) {
        Some("check") => match args.get(1) {
            Some(path) => cmd_scenario_check(path),
            None => Err(UsageError("scenario check needs a scenario file".into())),
        },
        Some("run") => match args.get(1) {
            Some(path) => cmd_scenario_run(path, &args[2..]),
            None => Err(UsageError("scenario run needs a scenario file".into())),
        },
        Some(other) => Err(UsageError(format!(
            "unknown scenario subcommand {other:?}; supported: check, run"
        ))),
        None => Err(UsageError(
            "scenario needs a subcommand: check <file> | run <file> [opts]".into(),
        )),
    }
}

fn cmd_replay(path: &str) -> Result<String, UsageError> {
    let text = read_trace(path)?;
    let summary = cmvrp_obs::summarize(text.lines()).map_err(at_line(path))?;
    let mut table = cmvrp_util::Table::new(vec!["quantity", "value"]);
    for (name, value) in summary.rows() {
        table.row(vec![name, value]);
    }
    Ok(format!("replay of {path}:\n{table}"))
}

/// Loads a trace file through the hardened sniffing loader in `cmvrp-obs`
/// (empty files, truncated magics, and partial trailing lines all come
/// back as scoped errors), keeping the identity header for reports.
fn load_trace_file(path: &str) -> Result<cmvrp_obs::LoadedTrace, UsageError> {
    cmvrp_obs::load_trace(path).map_err(UsageError)
}

/// Loads a trace file as canonical JSONL text, whichever encoding it is
/// in: binary traces (sniffed by the `CMVB` magic bytes) are decoded back
/// to JSON lines, so every trace-reading subcommand accepts both formats.
fn read_trace(path: &str) -> Result<String, UsageError> {
    Ok(load_trace_file(path)?.text)
}

/// Scopes a trace parse error `(line, message)` to `path:line`.
fn at_line(path: &str) -> impl Fn((usize, String)) -> UsageError + '_ {
    move |(line, msg)| UsageError(format!("{path}:{line}: {msg}"))
}

/// Parses the shared `--where=EXPR` analytics option (and rejects
/// anything else).
fn parse_where(opts: &[String], sub: &str) -> Result<Option<cmvrp_obs::QueryExpr>, UsageError> {
    let mut expr = None;
    for opt in opts {
        if let Some(v) = opt.strip_prefix("--where=") {
            expr =
                Some(cmvrp_obs::parse_query(v).map_err(|e| UsageError(format!("--where: {e}")))?);
        } else {
            return Err(UsageError(format!(
                "unknown option {opt:?}; trace {sub} accepts --where=EXPR"
            )));
        }
    }
    Ok(expr)
}

/// `trace stats <trace> [--where=EXPR]`: the replay summary plus an
/// identity header (encoding, schema version, event count), optionally
/// restricted to events matching a query expression.
fn cmd_trace_stats(path: &str, opts: &[String]) -> Result<String, UsageError> {
    let filter = parse_where(opts, "stats")?;
    let loaded = load_trace_file(path)?;
    let mut out = format!("trace stats of {path}: {}\n", loaded.header());
    let mut body = loaded.text;
    if let Some(expr) = &filter {
        let mut kept = String::new();
        let mut matched = 0usize;
        for item in cmvrp_obs::jsonl_events(body.lines()) {
            let (_, line, ev) = item.map_err(at_line(path))?;
            if expr.matches(&ev) {
                matched += 1;
                kept.push_str(line);
                kept.push('\n');
            }
        }
        let _ = writeln!(out, "where: {matched} of {} events match", loaded.events);
        body = kept;
    }
    let summary = cmvrp_obs::summarize(body.lines()).map_err(at_line(path))?;
    let mut table = cmvrp_util::Table::new(vec!["quantity", "value"]);
    for (name, value) in summary.rows() {
        table.row(vec![name, value]);
    }
    let _ = write!(out, "{table}");
    Ok(out)
}

/// `trace diff <a> <b> [--context=N]`: first semantic divergence between
/// two traces. Exit status 0 when identical, 1 when divergent.
fn cmd_trace_diff(a: &str, b: &str, opts: &[String]) -> Result<(String, i32), UsageError> {
    let mut context = 3usize;
    for opt in opts {
        if let Some(v) = opt.strip_prefix("--context=") {
            context = v
                .parse()
                .map_err(|_| UsageError(format!("bad context {v:?}")))?;
        } else {
            return Err(UsageError(format!(
                "unknown option {opt:?}; trace diff accepts --context=N"
            )));
        }
    }
    let loaded_a = load_trace_file(a)?;
    let loaded_b = load_trace_file(b)?;
    let report = cmvrp_obs::diff_lines(loaded_a.text.lines(), loaded_b.text.lines(), context)
        .map_err(|e| {
            let path = match e.side {
                cmvrp_obs::Side::A => a,
                cmvrp_obs::Side::B => b,
            };
            UsageError(format!("{path}: {e}"))
        })?;
    let mut out = format!(
        "diff A={a} ({}) vs B={b} ({})\n",
        loaded_a.header(),
        loaded_b.header()
    );
    let Some(d) = report.divergence else {
        let _ = writeln!(out, "identical: {} events agree", report.matched);
        return Ok((out, 0));
    };
    let band = d
        .time
        .map(|t| format!(", time band t={t}"))
        .unwrap_or_default();
    let _ = writeln!(
        out,
        "first divergence at line {} (after {} matching events{band})",
        d.line, report.matched
    );
    use cmvrp_obs::DivergenceKind::*;
    match &d.kind {
        PayloadDrift { kind, fields } => {
            let _ = writeln!(out, "payload drift: same {kind} event, differing fields:");
            for f in fields {
                let _ = writeln!(out, "  {}: {} (A) vs {} (B)", f.field, f.a, f.b);
            }
        }
        Reordered { t, band_len } => {
            let _ = writeln!(
                out,
                "pure reordering within time band t={t}: the {band_len} remaining events \
                 of the band carry the same multiset in a different order \
                 (a merge-determinism bug, not a behavioral difference)"
            );
        }
        EventSet { a_kind, b_kind } => {
            let _ = writeln!(
                out,
                "different event sets: A carries {a_kind}, B carries {b_kind}"
            );
        }
        Truncated { longer, extra } => {
            let _ = writeln!(
                out,
                "truncation: trace {} has {extra} extra event(s) the other lacks",
                longer.name()
            );
        }
    }
    for (name, window) in [("A", &d.context_a), ("B", &d.context_b)] {
        let _ = writeln!(out, "context {name}:");
        for (n, line) in window {
            let marker = if *n == d.line { '>' } else { ' ' };
            let _ = writeln!(out, " {marker} {n}: {line}");
        }
    }
    Ok((out, 1))
}

/// `trace query <expr> <trace>`: print every event matching a filter
/// expression, with its line number, plus a count summary.
fn cmd_trace_query(expr_src: &str, path: &str) -> Result<String, UsageError> {
    let expr = cmvrp_obs::parse_query(expr_src).map_err(|e| UsageError(e.to_string()))?;
    let loaded = load_trace_file(path)?;
    let mut out = String::new();
    let mut matched = 0usize;
    for item in cmvrp_obs::jsonl_events(loaded.text.lines()) {
        let (n, line, ev) = item.map_err(at_line(path))?;
        if expr.matches(&ev) {
            matched += 1;
            let _ = writeln!(out, "{n}: {}", line.trim());
        }
    }
    let _ = writeln!(
        out,
        "matched {matched} of {} events in {path} ({})",
        loaded.events,
        loaded.header()
    );
    Ok(out)
}

/// `trace explain <sel> <trace>`: the happens-before chain leading to a
/// chosen event, reconstructed from the checker's causal index. Selectors:
/// `job:<seq>` (its serve, or arrival if unserved), `proc:<id>` (the
/// process' last act), `line:<n>` (an exact trace line).
fn cmd_trace_explain(selector: &str, path: &str) -> Result<String, UsageError> {
    const CHAIN_CAP: usize = 12;
    let loaded = load_trace_file(path)?;
    let mut checker = cmvrp_obs::TraceChecker::new();
    checker.record_causality();
    for item in cmvrp_obs::jsonl_events(loaded.text.lines()) {
        let (n, _, ev) = item.map_err(at_line(path))?;
        checker.observe_at(n, &ev);
    }
    let ix = checker
        .into_causal_index()
        .expect("record_causality was enabled");
    let bad_selector = || {
        UsageError(format!(
            "bad selector {selector:?}; use job:<seq> (why was this job served), \
             proc:<id> (the process' last act), or line:<n> (an exact trace line)"
        ))
    };
    let (kind, val) = selector.split_once(':').ok_or_else(bad_selector)?;
    let n: u64 = val.parse().map_err(|_| bad_selector())?;
    let target = match kind {
        "job" => ix
            .serve_line(n)
            .or_else(|| ix.arrival_line(n))
            .ok_or_else(|| UsageError(format!("job {n} does not appear in {path}")))?,
        "proc" => ix
            .last_line_of(n as usize)
            .ok_or_else(|| UsageError(format!("process {n} never acts in {path}")))?,
        "line" => {
            let l = n as usize;
            if ix.node(l).is_none() {
                return Err(UsageError(format!(
                    "line {l} of {path} carries no event (out of range or blank)"
                )));
            }
            l
        }
        _ => return Err(bad_selector()),
    };
    let render = |n: &cmvrp_obs::CausalNode| {
        let actor = n
            .actor
            .map(|(p, l)| format!("  [proc {p}, lamport {l}]"))
            .unwrap_or_default();
        format!("line {}: {}{actor}", n.line, n.json)
    };
    let mut out = format!("explain {selector} in {path} ({})\n", loaded.header());
    let chain = ix.chain(target, CHAIN_CAP);
    if chain.is_empty() {
        let _ = writeln!(out, "no causal ancestors: the event is a root cause");
    } else {
        let _ = writeln!(
            out,
            "causal chain ({} happens-before ancestors, oldest first):",
            chain.len()
        );
        for node in &chain {
            let _ = writeln!(out, "  {}", render(node));
        }
    }
    let target_node = ix.node(target).expect("target resolved above");
    let _ = writeln!(out, "  => {}", render(target_node));
    Ok(out)
}

/// `trace convert <in> <out>`: lossless JSONL ↔ binary translation, the
/// direction inferred from the input's encoding.
fn cmd_trace_convert(input: &str, output: &str) -> Result<String, UsageError> {
    let bytes =
        std::fs::read(input).map_err(|e| UsageError(format!("cannot read {input:?}: {e}")))?;
    if cmvrp_obs::is_binary_trace(&bytes) {
        let events =
            cmvrp_obs::decode_trace(&bytes).map_err(|e| UsageError(format!("{input}: {e}")))?;
        let mut text = String::with_capacity(events.len() * 64);
        for ev in &events {
            text.push_str(&ev.to_json());
            text.push('\n');
        }
        std::fs::write(output, text)
            .map_err(|e| UsageError(format!("cannot write {output:?}: {e}")))?;
        Ok(format!(
            "converted {input} (binary) -> {output} (jsonl): {} events\n",
            events.len()
        ))
    } else {
        let text = String::from_utf8(bytes)
            .map_err(|e| UsageError(format!("{input}: not UTF-8 JSONL: {e}")))?;
        let mut sink = BinSink::create(output)
            .map_err(|e| UsageError(format!("cannot create {output:?}: {e}")))?;
        for item in cmvrp_obs::jsonl_events(text.lines()) {
            sink.record(&item.map_err(at_line(input))?.2);
        }
        let events = sink
            .finish()
            .map_err(|e| UsageError(format!("write to {output:?} failed: {e}")))?;
        Ok(format!(
            "converted {input} (jsonl) -> {output} (binary): {events} events\n"
        ))
    }
}

/// `trace profile <trace>`: aggregates the flight recorder's
/// `round_profile` samples into a per-worker phase breakdown and a
/// bucketed round timeline.
fn cmd_trace_profile(path: &str) -> Result<String, UsageError> {
    #[derive(Default, Clone)]
    struct Acc {
        rounds: u64,
        busy: u64,
        barrier: u64,
        steals: u64,
    }
    let text = read_trace(path)?;
    let mut per: std::collections::BTreeMap<u64, Acc> = std::collections::BTreeMap::new();
    // round -> (busy over workers, wall = busy + barrier over workers,
    // merge, sink); merge/sink are replicated on every worker's sample,
    // so insertion keeps one copy per round.
    let mut rounds: std::collections::BTreeMap<u64, (u64, u64, u64, u64)> =
        std::collections::BTreeMap::new();
    for item in cmvrp_obs::jsonl_events(text.lines()) {
        let (_, _, ev) = item.map_err(at_line(path))?;
        if let Event::RoundProfile {
            round,
            worker,
            busy_ns,
            barrier_wait_ns,
            merge_ns,
            sink_ns,
            steals,
            ..
        } = ev
        {
            let (busy, barrier) = (busy_ns.max(0) as u64, barrier_wait_ns.max(0) as u64);
            let acc = per.entry(worker).or_default();
            acc.rounds += 1;
            acc.busy += busy;
            acc.barrier += barrier;
            acc.steals += steals;
            let r = rounds.entry(round).or_insert((0, 0, 0, 0));
            r.0 += busy;
            r.1 += busy + barrier;
            r.2 = merge_ns.max(0) as u64;
            r.3 = sink_ns.max(0) as u64;
        }
    }
    if per.is_empty() {
        return Ok(format!(
            "no round_profile samples in {path}; record them with \
             `cmvrp simulate <workload> --threads=N --profile`\n"
        ));
    }
    let ms = |ns: u64| format!("{:.3}", ns as f64 / 1e6);
    let mut out = format!(
        "profile of {path}: {} rounds, {} workers\n",
        rounds.len(),
        per.len()
    );
    let mut table = cmvrp_util::Table::new(vec![
        "worker",
        "rounds",
        "busy_ms",
        "barrier_ms",
        "util%",
        "steals",
    ]);
    let (mut busy_total, mut barrier_total, mut steals_total) = (0u64, 0u64, 0u64);
    for (worker, acc) in &per {
        let wall = acc.busy + acc.barrier;
        table.row(vec![
            worker.to_string(),
            acc.rounds.to_string(),
            ms(acc.busy),
            ms(acc.barrier),
            format!("{:.1}", 100.0 * acc.busy as f64 / (wall.max(1)) as f64),
            acc.steals.to_string(),
        ]);
        busy_total += acc.busy;
        barrier_total += acc.barrier;
        steals_total += acc.steals;
    }
    let pool = per.len() as u64;
    let stepping = (busy_total + barrier_total) / pool.max(1);
    table.row(vec![
        "all".into(),
        rounds.len().to_string(),
        ms(busy_total),
        ms(barrier_total),
        format!(
            "{:.1}",
            100.0 * busy_total as f64 / ((busy_total + barrier_total).max(1)) as f64
        ),
        steals_total.to_string(),
    ]);
    let _ = write!(out, "{table}");
    let merge_total: u64 = rounds.values().map(|r| r.2).sum();
    let sink_total: u64 = rounds.values().map(|r| r.3).sum();
    let recorded = stepping + merge_total + sink_total;
    let _ = writeln!(
        out,
        "phases: stepping {} ms + merge {} ms + sink {} ms = {} ms recorded",
        ms(stepping),
        ms(merge_total),
        ms(sink_total),
        ms(recorded)
    );
    // Bucketed utilization timeline: at most 20 buckets of consecutive
    // rounds, each bar char worth 5% of worker utilization.
    let ordered: Vec<(u64, (u64, u64, u64, u64))> = rounds.into_iter().collect();
    let bucket_size = ordered.len().div_ceil(20);
    let _ = writeln!(
        out,
        "timeline ({} rounds/bucket, each # = 5% busy):",
        bucket_size
    );
    for bucket in ordered.chunks(bucket_size) {
        let busy: u64 = bucket.iter().map(|(_, r)| r.0).sum();
        let wall: u64 = bucket.iter().map(|(_, r)| r.1).sum();
        let util = 100.0 * busy as f64 / wall.max(1) as f64;
        let bar = "#".repeat((util / 5.0).round() as usize);
        let _ = writeln!(
            out,
            "  rounds {:>5}-{:<5} {:>5.1}% {bar}",
            bucket.first().map(|(r, _)| *r).unwrap_or(0),
            bucket.last().map(|(r, _)| *r).unwrap_or(0),
            util
        );
    }
    Ok(out)
}

fn cmd_trace_check(path: &str, opts: &[String]) -> Result<String, UsageError> {
    let mut capacity = None;
    for opt in opts {
        if let Some(v) = opt.strip_prefix("--capacity=") {
            capacity = Some(
                v.parse()
                    .map_err(|_| UsageError(format!("bad capacity {v:?}")))?,
            );
        } else {
            return Err(UsageError(format!("unknown option {opt:?}")));
        }
    }
    let text = read_trace(path)?;
    let report = cmvrp_obs::check_lines(text.lines(), capacity).map_err(at_line(path))?;
    if report.is_clean() {
        return Ok(format!(
            "trace OK: {} events, {} invariants checked ({})\n",
            report.events,
            report.active.len(),
            report.active.join(", ")
        ));
    }
    let mut msg = format!(
        "trace FAILED: {} violation(s) in {} events\n",
        report.violations.len(),
        report.events
    );
    for v in report.violations.iter().take(10) {
        let _ = writeln!(msg, "{path}:{}: [{}] {}", v.line, v.invariant, v.detail);
        // The offline checker records the causal index, so each violation
        // carries the chain of events that led to the offending one.
        if !v.chain.is_empty() {
            let _ = writeln!(msg, "  caused by:");
            for entry in &v.chain {
                let _ = writeln!(msg, "    {entry}");
            }
        }
    }
    if report.violations.len() > 10 {
        let _ = writeln!(msg, "... and {} more", report.violations.len() - 10);
    }
    Err(UsageError(msg))
}

fn cmd_trace_timeline(proc_arg: &str, path: &str, opts: &[String]) -> Result<String, UsageError> {
    let proc: usize = proc_arg
        .parse()
        .map_err(|_| UsageError(format!("bad process id {proc_arg:?}")))?;
    let filter = parse_where(opts, "timeline")?;
    let text = read_trace(path)?;
    let mut checker = cmvrp_obs::TraceChecker::new();
    let mut table = cmvrp_util::Table::new(vec!["line", "lamport", "event"]);
    let mut shown = 0u64;
    for item in cmvrp_obs::jsonl_events(text.lines()) {
        let (n, line, ev) = item.map_err(at_line(path))?;
        // The checker attributes each event to one acting process and
        // advances that process' Lamport clock; the timeline is the slice
        // of that ledger belonging to `proc`.
        if let Some((actor, lamport)) = checker.observe_at(n, &ev) {
            if actor == proc && filter.as_ref().is_none_or(|expr| expr.matches(&ev)) {
                table.row(vec![
                    n.to_string(),
                    lamport.to_string(),
                    line.trim().to_string(),
                ]);
                shown += 1;
            }
        }
    }
    let filtered = if filter.is_some() {
        " matching --where"
    } else {
        ""
    };
    Ok(format!(
        "timeline of process {proc} ({shown}{filtered} events):\n{table}"
    ))
}

fn cmd_trace_spans(path: &str) -> Result<String, UsageError> {
    let text = read_trace(path)?;
    // name -> (count, total_ns, max_ns)
    let mut agg: std::collections::BTreeMap<String, (u64, u64, u64)> =
        std::collections::BTreeMap::new();
    for item in cmvrp_obs::jsonl_events(text.lines()) {
        let (_, _, ev) = item.map_err(at_line(path))?;
        if let Event::PhaseSpan {
            name,
            start_ns,
            end_ns,
        } = ev
        {
            let ns = end_ns.saturating_sub(start_ns);
            let e = agg.entry(name).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += ns;
            e.2 = e.2.max(ns);
        }
    }
    if agg.is_empty() {
        return Ok(format!("no phase spans in {path}\n"));
    }
    let mut rows: Vec<(String, (u64, u64, u64))> = agg.into_iter().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1 .1)); // heaviest first
    let mut table = cmvrp_util::Table::new(vec!["span", "count", "total_ns", "mean_ns", "max_ns"]);
    for (name, (count, total, max)) in rows {
        table.row(vec![
            name,
            count.to_string(),
            total.to_string(),
            format!("{:.0}", total as f64 / count as f64),
            max.to_string(),
        ]);
    }
    Ok(format!("spans of {path}:\n{table}"))
}

fn cmd_ckpt(args: &[String]) -> Result<String, UsageError> {
    match args.first().map(String::as_str) {
        Some("inspect") => match args.get(1) {
            Some(path) => {
                let ckpt = cmvrp_ckpt::read_checkpoint(Path::new(path)).map_err(UsageError)?;
                Ok(cmvrp_ckpt::inspect(&ckpt))
            }
            None => Err(UsageError("ckpt inspect needs a checkpoint path".into())),
        },
        Some(other) => Err(UsageError(format!(
            "unknown ckpt subcommand {other:?}; expected: inspect"
        ))),
        None => Err(UsageError("ckpt needs a subcommand: inspect".into())),
    }
}

/// Renders campaign records as the status table; returns the text and the
/// scriptable exit status (1 when the dead-letter list is non-empty).
fn campaign_summary(records: &[cmvrp_ckpt::RunRecord]) -> (String, i32) {
    let mut table = cmvrp_util::Table::new(vec!["run", "status", "attempts", "last error"]);
    for r in records {
        table.row(vec![
            r.name.clone(),
            if r.done { "done".into() } else { "DEAD".into() },
            r.attempts.to_string(),
            r.error.clone(),
        ]);
    }
    let dead = records.iter().filter(|r| !r.done).count();
    let mut out = table.to_string();
    if dead > 0 {
        let _ = writeln!(
            out,
            "dead-letter: {dead} run(s) exhausted their retries; re-run them \
             with `cmvrp campaign retry-dead <spec> --dir=DIR`"
        );
    } else {
        let _ = writeln!(out, "all {} run(s) completed", records.len());
    }
    (out, i32::from(dead > 0))
}

/// Shared option parsing for `campaign run` / `campaign retry-dead`:
/// a positional spec path plus `--dir=` / `--bin=`.
fn campaign_opts(verb: &str, args: &[String]) -> Result<(String, PathBuf, PathBuf), UsageError> {
    let mut spec_path: Option<String> = None;
    let mut dir: Option<String> = None;
    let mut bin: Option<String> = None;
    for a in args {
        if let Some(v) = a.strip_prefix("--dir=") {
            dir = Some(v.to_string());
        } else if let Some(v) = a.strip_prefix("--bin=") {
            bin = Some(v.to_string());
        } else if a.starts_with("--") {
            return Err(UsageError(format!("unknown option {a:?}")));
        } else if spec_path.is_none() {
            spec_path = Some(a.clone());
        } else {
            return Err(UsageError(format!("unexpected argument {a:?}")));
        }
    }
    let spec_path =
        spec_path.ok_or_else(|| UsageError(format!("campaign {verb} needs a spec path")))?;
    let dir = dir
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("{spec_path}.campaign")));
    let bin = match bin {
        Some(b) => PathBuf::from(b),
        None => std::env::current_exe()
            .map_err(|e| UsageError(format!("cannot locate the cmvrp binary: {e}")))?,
    };
    Ok((spec_path, dir, bin))
}

fn cmd_campaign_run(args: &[String], only_dead: bool) -> Result<(String, i32), UsageError> {
    let verb = if only_dead { "retry-dead" } else { "run" };
    let (spec_path, dir, bin) = campaign_opts(verb, args)?;
    let text = std::fs::read_to_string(&spec_path)
        .map_err(|e| UsageError(format!("cannot read campaign spec {spec_path:?}: {e}")))?;
    let mut runs =
        cmvrp_ckpt::parse_spec(&text).map_err(|e| UsageError(format!("{spec_path}: {e}")))?;
    std::fs::create_dir_all(&dir)
        .map_err(|e| UsageError(format!("cannot create campaign dir {dir:?}: {e}")))?;
    let mut prior: Vec<cmvrp_ckpt::RunRecord> = Vec::new();
    if only_dead {
        prior = cmvrp_ckpt::load_state(&dir).map_err(UsageError)?;
        runs.retain(|r| prior.iter().any(|p| p.name == r.name && !p.done));
        if runs.is_empty() {
            return Ok((
                "dead-letter list is empty; nothing to retry\n".to_string(),
                0,
            ));
        }
    }
    let mut exec = cmvrp_ckpt::ProcessExecutor { bin };
    let mut log: Vec<String> = Vec::new();
    let records = cmvrp_ckpt::run_campaign(&runs, &dir, &mut exec, &mut |line| {
        log.push(line.to_string())
    });
    // retry-dead folds the fresh verdicts back over the previous state.
    let merged: Vec<cmvrp_ckpt::RunRecord> = if only_dead {
        prior
            .into_iter()
            .map(|p| {
                records
                    .iter()
                    .find(|r| r.name == p.name)
                    .cloned()
                    .unwrap_or(p)
            })
            .collect()
    } else {
        records
    };
    cmvrp_ckpt::save_state(&dir, &merged)
        .map_err(|e| UsageError(format!("cannot write campaign state in {dir:?}: {e}")))?;
    let mut out = String::new();
    for line in log {
        let _ = writeln!(out, "{line}");
    }
    let (summary, status) = campaign_summary(&merged);
    out.push_str(&summary);
    let _ = writeln!(out, "state: {}", dir.join("state.tsv").display());
    Ok((out, status))
}

fn cmd_campaign(args: &[String]) -> Result<(String, i32), UsageError> {
    match args.first().map(String::as_str) {
        Some("run") => cmd_campaign_run(&args[1..], false),
        Some("retry-dead") => cmd_campaign_run(&args[1..], true),
        Some("status") => match args.get(1) {
            Some(dir) => {
                let records = cmvrp_ckpt::load_state(Path::new(dir)).map_err(UsageError)?;
                Ok(campaign_summary(&records))
            }
            None => Err(UsageError(
                "campaign status needs the campaign directory (<spec>.campaign)".into(),
            )),
        },
        Some(other) => Err(UsageError(format!(
            "unknown campaign subcommand {other:?}; expected one of: run|status|retry-dead"
        ))),
        None => Err(UsageError(
            "campaign needs a subcommand: run|status|retry-dead".into(),
        )),
    }
}

fn cmd_trace(args: &[String]) -> Result<(String, i32), UsageError> {
    let ok = |r: Result<String, UsageError>| r.map(|out| (out, 0));
    match args.first().map(String::as_str) {
        Some("check") => match args.get(1) {
            Some(path) => ok(cmd_trace_check(path, &args[2..])),
            None => Err(UsageError("trace check needs a trace path".into())),
        },
        Some("stats") => match args.get(1) {
            Some(path) => ok(cmd_trace_stats(path, &args[2..])),
            None => Err(UsageError("trace stats needs a trace path".into())),
        },
        Some("timeline") => match (args.get(1), args.get(2)) {
            (Some(proc), Some(path)) => ok(cmd_trace_timeline(proc, path, &args[3..])),
            _ => Err(UsageError(
                "trace timeline needs a process id and a trace path".into(),
            )),
        },
        Some("spans") => match args.get(1) {
            Some(path) => ok(cmd_trace_spans(path)),
            None => Err(UsageError("trace spans needs a trace path".into())),
        },
        Some("convert") => match (args.get(1), args.get(2)) {
            (Some(input), Some(output)) => ok(cmd_trace_convert(input, output)),
            _ => Err(UsageError(
                "trace convert needs an input and an output path".into(),
            )),
        },
        Some("profile") => match args.get(1) {
            Some(path) => ok(cmd_trace_profile(path)),
            None => Err(UsageError("trace profile needs a trace path".into())),
        },
        Some("diff") => match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => cmd_trace_diff(a, b, &args[3..]),
            _ => Err(UsageError("trace diff needs two trace paths".into())),
        },
        Some("query") => match (args.get(1), args.get(2)) {
            (Some(expr), Some(path)) => ok(cmd_trace_query(expr, path)),
            _ => Err(UsageError(
                "trace query needs an expression and a trace path".into(),
            )),
        },
        Some("explain") => match (args.get(1), args.get(2)) {
            (Some(sel), Some(path)) => ok(cmd_trace_explain(sel, path)),
            _ => Err(UsageError(
                "trace explain needs a selector (job:<seq>|proc:<id>|line:<n>) \
                 and a trace path"
                    .into(),
            )),
        },
        Some(other) => Err(UsageError(format!(
            "unknown trace subcommand {other:?}; expected one of: {}",
            TRACE_SUBCOMMANDS.join("|")
        ))),
        None => Err(UsageError(format!(
            "trace needs a subcommand: {}",
            TRACE_SUBCOMMANDS.join("|")
        ))),
    }
}

/// `serve listen`/`serve send`: the multi-tenant simulation service (see
/// `cmvrp-serve`). `listen` prints the bound address eagerly — before
/// blocking in the accept loop — so scripts starting a server on port 0
/// can read the chosen port from the first stdout line.
fn cmd_serve(args: &[String]) -> Result<String, UsageError> {
    match args.first().map(String::as_str) {
        Some("listen") => cmd_serve_listen(&args[1..]),
        Some("send") => match args.get(1) {
            Some(addr) => cmd_serve_send(addr, &args[2..]),
            None => Err(UsageError(
                "serve send needs a server address, e.g. `cmvrp serve send \
                 127.0.0.1:7077` (the address `serve listen` printed)"
                    .into(),
            )),
        },
        Some(other) => Err(UsageError(format!(
            "unknown serve subcommand {other:?}; supported: listen (host \
             sessions over TCP), send (drive a server from stdin)"
        ))),
        None => Err(UsageError(
            "serve needs a subcommand: listen (host sessions over TCP) or \
             send (drive a server from stdin)"
                .into(),
        )),
    }
}

fn cmd_serve_listen(opts: &[String]) -> Result<String, UsageError> {
    let mut config = cmvrp_serve::ServeConfig::default();
    for opt in opts {
        if let Some(v) = opt.strip_prefix("--addr=") {
            config.addr = v.to_string();
        } else if let Some(v) = opt.strip_prefix("--max-sessions=") {
            let n: usize = v
                .parse()
                .map_err(|_| UsageError(format!("bad session limit {v:?}")))?;
            if n == 0 {
                return Err(UsageError(
                    "--max-sessions must be at least 1 (it bounds the \
                     sessions one connection may hold open)"
                        .into(),
                ));
            }
            config.max_sessions = n;
        } else if let Some(v) = opt.strip_prefix("--connections=") {
            config.connections = v
                .parse()
                .map_err(|_| UsageError(format!("bad connection count {v:?}")))?;
        } else {
            return Err(UsageError(format!(
                "unknown option {opt:?}; serve listen accepts --addr=H:P, \
                 --max-sessions=N, and --connections=N"
            )));
        }
    }
    let server =
        cmvrp_serve::Server::bind(config).map_err(|e| UsageError(format!("cannot bind: {e}")))?;
    let addr = server
        .local_addr()
        .map_err(|e| UsageError(format!("cannot read bound address: {e}")))?;
    {
        use std::io::Write as _;
        let mut stdout = std::io::stdout().lock();
        let _ = writeln!(stdout, "serving on {addr}");
        let _ = stdout.flush();
    }
    let stats = server
        .run()
        .map_err(|e| UsageError(format!("serve failed: {e}")))?;
    Ok(format!(
        "served {} connection(s): {} session(s), {} request(s)\n",
        stats.connections, stats.sessions, stats.requests
    ))
}

fn cmd_serve_send(addr: &str, opts: &[String]) -> Result<String, UsageError> {
    if let Some(opt) = opts.first() {
        return Err(UsageError(format!(
            "unknown option {opt:?}; serve send takes only the server \
             address and reads request lines from stdin"
        )));
    }
    let stdin = std::io::stdin();
    let mut out = Vec::new();
    cmvrp_serve::send(addr, &mut stdin.lock(), &mut out)
        .map_err(|e| UsageError(format!("serve send to {addr}: {e}")))?;
    Ok(String::from_utf8_lossy(&out).into_owned())
}

/// Dispatches a CLI invocation; returns the text to print or a usage error.
/// Thin wrapper over [`run_with_status`] that drops the exit status — kept
/// for callers (and tests) that only care about the text.
pub fn run(args: &[String]) -> Result<String, UsageError> {
    run_with_status(args).map(|(out, _)| out)
}

/// Dispatches a CLI invocation; returns the text to print plus the process
/// exit status: 0 for success, 1 when `trace diff` found a semantic
/// divergence (scriptable, like `cmp`/`diff`). Usage and I/O errors
/// surface as `Err` and exit 2.
pub fn run_with_status(args: &[String]) -> Result<(String, i32), UsageError> {
    if args.first().map(String::as_str) == Some("trace") {
        return cmd_trace(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("campaign") {
        return cmd_campaign(&args[1..]);
    }
    let out = match args.first().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => Ok(usage()),
        Some("workloads") => Ok(
            "point, line, square, uniform, clusters, @scenario.toml — see \
             `cmvrp help` for parameters\n"
                .to_string(),
        ),
        Some("sweep") => match args.get(1) {
            Some(shape) => cmd_sweep(shape, &args[2..]),
            None => Err(UsageError("sweep needs a shape (point|line)".into())),
        },
        Some("experiment") => match args.get(1) {
            Some(id) => cmd_experiment(id),
            None => Err(UsageError(
                "experiment needs an id (e1..e16, f1, g1)".into(),
            )),
        },
        Some("show") => match args.get(1) {
            Some(spec) => cmd_show(spec),
            None => Err(UsageError("show needs a workload spec".into())),
        },
        Some("solve") => match args.get(1) {
            Some(spec) => cmd_solve(spec),
            None => Err(UsageError("solve needs a workload spec".into())),
        },
        Some("simulate") => match args.get(1) {
            Some(spec) => cmd_simulate(spec, &args[2..]),
            None => Err(UsageError("simulate needs a workload spec".into())),
        },
        Some("scenario") => cmd_scenario(&args[1..]),
        Some("replay") => match args.get(1) {
            Some(path) => cmd_replay(path),
            None => Err(UsageError("replay needs a trace path".into())),
        },
        Some("ckpt") => cmd_ckpt(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some(other) => Err(UsageError(format!("unknown command {other:?}"))),
    };
    out.map(|s| (s, 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
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
        assert!(run(&argv("replay")).is_err());
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
        let mut traces = Vec::new();
        for threads in [1, 8] {
            let path = std::env::temp_dir().join(format!("cmvrp_cli_threads_{threads}.jsonl"));
            let out = run(&[
                "simulate".into(),
                "point:grid=12,demand=250".into(),
                format!("--threads={threads}"),
                "--check".into(),
                format!("--trace-jsonl={}", path.display()),
            ])
            .unwrap();
            assert!(out.contains("all invariants hold"), "{out}");
            assert!(out.contains("served: 250/250"), "{out}");
            traces.push(std::fs::read(&path).unwrap());
            let _ = std::fs::remove_file(&path);
        }
        assert_eq!(traces[0], traces[1]);
    }

    #[test]
    fn simulate_schedule_traces_are_byte_identical() {
        // One static single-worker baseline, then every non-default policy
        // at 2 workers — the merged bytes must never move.
        let mut traces = Vec::new();
        for (tag, extra) in [
            ("static1", "--threads=1"),
            ("steal2", "--threads=2 --schedule=steal"),
            ("rebalance2", "--threads=2 --schedule=rebalance"),
        ] {
            let path = std::env::temp_dir().join(format!("cmvrp_cli_sched_{tag}.jsonl"));
            let mut args = argv("simulate clusters:grid=12,k=3,jobs=180,seed=9 --check");
            args.extend(argv(extra));
            args.push(format!("--trace-jsonl={}", path.display()));
            let out = run(&args).unwrap();
            assert!(out.contains("all invariants hold"), "{out}");
            traces.push(std::fs::read(&path).unwrap());
            let _ = std::fs::remove_file(&path);
        }
        assert_eq!(traces[0], traces[1]);
        assert_eq!(traces[0], traces[2]);
    }

    /// The scenario-file equivalence oracle: a default (batch, fault-free)
    /// scenario file must produce byte-identical traces to its flag spec
    /// through `simulate @file` AND `scenario run`, across worker counts,
    /// scheduling policies, and checked mode.
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
        for (tag, extra) in [
            ("static1", "--threads=1"),
            ("steal2", "--threads=2 --schedule=steal --check"),
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
    fn simulate_schedule_needs_threads_and_names_combinations() {
        let err = run(&argv("simulate point:grid=8,demand=40 --schedule=steal")).unwrap_err();
        // The error names the fix and the supported combinations.
        assert!(err.0.contains("--threads"), "{err}");
        assert!(err.0.contains("static"), "{err}");
        // Explicit --schedule=static without --threads is the default; fine.
        let out = run(&argv("simulate point:grid=8,demand=40 --schedule=static")).unwrap();
        assert!(out.contains("served: 40/40"), "{out}");
    }

    #[test]
    fn simulate_rejects_unknown_schedule() {
        let err = run(&argv("simulate point:grid=8,demand=40 --schedule=zigzag")).unwrap_err();
        assert!(err.0.contains("zigzag"), "{err}");
        assert!(err.0.contains("steal"), "{err}");
        assert!(err.0.contains("rebalance"), "{err}");
    }

    #[test]
    fn simulate_metrics_show_worker_counters() {
        let out = run(&argv(
            "simulate point:grid=12,demand=250 --threads=2 --schedule=steal --metrics",
        ))
        .unwrap();
        assert!(out.contains("engine.rounds"), "{out}");
        assert!(out.contains("engine.worker0.shards_stepped"), "{out}");
        assert!(out.contains("engine.worker0.busy_us"), "{out}");
        assert!(out.contains("engine.steals"), "{out}");
    }

    #[test]
    fn simulate_threads_rejects_monitored_and_zero() {
        let err = run(&argv(
            "simulate point:grid=8,demand=40 --threads=2 --monitored",
        ))
        .unwrap_err();
        assert!(err.0.contains("monitored"), "{err}");
        // The rejection names what still works on the sharded engine.
        assert!(err.0.contains("--check"), "{err}");
        assert!(err.0.contains("--trace-jsonl"), "{err}");
        assert!(run(&argv("simulate point:grid=8,demand=40 --threads=0")).is_err());
    }

    #[test]
    fn simulate_dense_limit_points_at_sharded_engine() {
        // 1024² exceeds the dense engine's volume limit; the error should
        // steer the user to --threads, and the sharded engine should then
        // handle the same workload.
        let err = run(&argv("simulate point:grid=1024,demand=50")).unwrap_err();
        assert!(err.0.contains("--threads"), "{err}");
        let out = run(&argv("simulate point:grid=1024,demand=50 --threads=4")).unwrap();
        assert!(out.contains("served: 50/50"), "{out}");
    }

    #[test]
    fn trace_then_replay_round_trips() {
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
        let replay_out = run(&["replay".into(), path_str.clone()]).unwrap();
        assert!(replay_out.contains("jobs_served"));
        // The trace alone reproduces the report's served count.
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
        let text = std::fs::read_to_string(&path).unwrap();
        let summary = cmvrp_obs::summarize(text.lines()).unwrap();
        assert_eq!(summary.jobs_served, served);
        assert_eq!(summary.jobs_unserved(), 0);
        let msgs_line = sim_out
            .lines()
            .find(|l| l.starts_with("messages:"))
            .unwrap()
            .to_string();
        let messages: u64 = msgs_line.trim_start_matches("messages: ").parse().unwrap();
        assert_eq!(summary.msgs_delivered, messages);
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
        // --profile without --threads: structured error naming the fix.
        let err = run(&argv("simulate point:grid=8,demand=40 --profile")).unwrap_err();
        assert!(err.0.contains("--profile"), "{err}");
        assert!(err.0.contains("--threads"), "{err}");
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
    fn replay_rejects_garbage() {
        let path = std::env::temp_dir().join("cmvrp_cli_bad_trace.jsonl");
        std::fs::write(&path, "not json\n").unwrap();
        let err = run(&["replay".into(), path.to_str().unwrap().into()]).unwrap_err();
        assert!(err.0.contains(":1:"), "{err}");
        let _ = std::fs::remove_file(&path);
        assert!(run(&["replay".into(), "/nonexistent/x.jsonl".into()]).is_err());
    }

    fn golden_path() -> String {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/data/golden_point.jsonl"
        )
        .into()
    }

    #[test]
    fn trace_usage_and_errors_enumerate_all_subcommands() {
        // The usage text, the no-subcommand error, and the
        // unknown-subcommand error must all agree on the full set, so a
        // new subcommand that forgets one of them fails here.
        let usage_text = usage();
        let no_sub = run(&argv("trace")).unwrap_err().0;
        let unknown = run(&argv("trace bogus")).unwrap_err().0;
        for sub in TRACE_SUBCOMMANDS {
            assert!(
                usage_text.contains(&format!("cmvrp trace {sub}")),
                "usage misses trace {sub}"
            );
            assert!(
                no_sub.contains(sub),
                "no-subcommand error misses {sub}: {no_sub}"
            );
            assert!(
                unknown.contains(sub),
                "unknown-subcommand error misses {sub}: {unknown}"
            );
        }
        assert!(unknown.contains("bogus"), "{unknown}");
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
        // the loader normalizes both sides to canonical JSONL first.
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
        // Checkpointing needs the sharded engine.
        let err = run(&argv(
            "simulate point:grid=9,demand=30 --checkpoint=/tmp/x.cmvc",
        ))
        .unwrap_err();
        assert!(err.0.contains("--checkpoint"), "{err}");
        assert!(err.0.contains("--threads"), "{err}");
        let err = run(&argv("simulate point:grid=9,demand=30 --stop-at-round=4")).unwrap_err();
        assert!(err.0.contains("--stop-at-round"), "{err}");
        assert!(err.0.contains("--threads"), "{err}");
    }

    #[test]
    fn resume_rejects_mismatched_threads_and_schedule() {
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
        let mut args = base.clone();
        args.push("--schedule=steal".into());
        let err = run(&args).unwrap_err();
        assert!(err.0.contains("--schedule=steal disagrees"), "{err}");
        assert!(err.0.contains("--schedule=static"), "{err}");
        // Restating the checkpoint's own shape is fine.
        let mut args = base.clone();
        args.push("--threads=2".into());
        args.push("--schedule=static".into());
        assert!(run(&args).is_ok());
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
        assert!(out.contains("--threads=2 --schedule=static"), "{out}");
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
