//! The commands that run the on-line protocol, `simulate` and `scenario
//! run`, over one run path: the flags they share, the trace sink, and the
//! inline check's verdict. `scenario check` lives here too, beside the
//! scenario header it shares with `scenario run`.

use crate::{parse_workload, table, usage_error, Args, Outcome, UsageError};
use cmvrp_core::Instance;
use cmvrp_engine::{CheckScope, CheckSummary, CheckpointPolicy, EngineCheckpoint, ExecConfig};
use cmvrp_obs::{BinSink, JsonlSink, NullSink, Sink};
use cmvrp_online::{OnlineConfig, OnlineReport};
use cmvrp_scenario::{baselines, Baseline, Scenario};
use std::fmt::Write as _;
use std::io::IsTerminal;
use std::path::Path;

/// The flags `simulate` and `scenario run` share, read once.
struct RunFlags<'a> {
    online: OnlineConfig,
    threads: Option<usize>,
    check: bool,
    /// The trace file's path, and whether it is CMVB rather than JSONL.
    trace: Option<(&'a str, bool)>,
}

impl<'a> RunFlags<'a> {
    fn read(a: &Args<'a>) -> Result<Self, UsageError> {
        let mut online = OnlineConfig::default();
        online.seed = a.num("seed")?.unwrap_or(online.seed);
        online.capacity_override = a.num("capacity")?;
        let threads = a.num("threads")?;
        if threads == Some(0) {
            return Err(UsageError("--threads must be at least 1".into()));
        }
        let trace = match (a.value("trace-jsonl"), a.value("trace-bin")) {
            (Some(_), Some(_)) => {
                return Err(UsageError(
                    "--trace-jsonl and --trace-bin record the same event stream; \
                     pick one encoding (either converts to the other losslessly \
                     with `cmvrp trace convert <in> <out>`)"
                        .into(),
                ))
            }
            (Some(path), None) => Some((path, false)),
            (None, bin) => bin.map(|path| (path, true)),
        };
        Ok(Self {
            online,
            threads,
            check: a.has("check"),
            trace,
        })
    }

    fn exec(&self) -> ExecConfig {
        ExecConfig::new()
            .threads(self.threads.unwrap_or(1))
            .check(self.check)
    }

    /// Runs `run` into the trace file, or into a [`NullSink`] when there
    /// is none; returns its result and the `trace:` line that reports the
    /// file.
    fn traced<T>(
        &self,
        run: impl FnOnce(&mut dyn Sink) -> Result<T, UsageError>,
    ) -> Result<(T, String), UsageError> {
        let Some((path, binary)) = self.trace else {
            return Ok((run(&mut NullSink)?, String::new()));
        };
        let cannot = |e: std::io::Error| UsageError(format!("cannot create {path:?}: {e}"));
        let failed = |e: std::io::Error| UsageError(format!("trace write to {path:?} failed: {e}"));
        let (result, events) = if binary {
            let mut sink = BinSink::create(path).map_err(cannot)?;
            let result = run(&mut sink)?;
            (result, sink.finish().map_err(failed)?)
        } else {
            let mut sink = JsonlSink::create(path).map_err(cannot)?;
            let result = run(&mut sink)?;
            (result, sink.finish().map_err(failed)?)
        };
        let tag = if binary { " (binary)" } else { "" };
        Ok((result, format!("trace: {events} events -> {path}{tag}\n")))
    }

    /// The verdict of the inline check: nothing when the run was not
    /// checked, a one-line all-clear, or a [`UsageError`] naming each
    /// offending event's location and invariant. Merged-stream locations
    /// are prefixed by the trace path, or `event` when the run was not
    /// traced to disk; shard-scoped violations count that shard's local
    /// events instead.
    fn verdict(&self, summary: Option<&CheckSummary>) -> Result<String, UsageError> {
        let Some(summary) = summary else {
            return Ok(String::new());
        };
        let (events, n) = (summary.events, summary.violations.len());
        if summary.is_clean() {
            return Ok(format!(
                "check: {events} events validated, all invariants hold\n"
            ));
        }
        let source = self.trace.map_or("event", |(path, _)| path);
        let mut msg = format!("check FAILED: {n} violation(s) in {events} events\n");
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
        if n > 10 {
            let _ = writeln!(msg, "  ... and {} more", n - 10);
        }
        Err(UsageError(msg))
    }
}

fn render_report(out: &mut String, label: &str, r: &OnlineReport) {
    let _ = write!(
        out,
        "workload: {label}\ncapacity: {}\nserved: {}/{}\nmax energy used: {}\n\
         replacements: {} (failed: {})\nmessages: {}\n\
         msg delay: mean {:.2}, max {} (queue depth <= {})\n\
         waves: {} diffusions, {} heartbeat misses\nomega_c: {} (cube side {})\n",
        r.capacity,
        r.served,
        r.served + r.unserved,
        r.max_energy_used,
        r.replacements,
        r.failed_replacements,
        r.messages,
        r.mean_msg_delay,
        r.max_msg_delay,
        r.max_queue_depth,
        r.diffusions,
        r.heartbeat_misses,
        r.omega_c,
        r.cube_side
    );
}

/// Reads the checkpoint `--resume-from` names. Resuming inherits the
/// execution shape from the checkpoint unless the flags restate it;
/// restating it *differently* is rejected (the result would be sound —
/// traces are thread-invariant — but almost certainly unintended).
fn read_resume(path: &str, threads: &mut Option<usize>) -> Result<EngineCheckpoint, UsageError> {
    if !Path::new(path).exists() {
        return Err(UsageError(format!(
            "--resume-from={path}: no such checkpoint file; supported \
             alternatives: write one first with `cmvrp simulate ... \
             --checkpoint={path}`, or drop --resume-from to start the \
             run fresh"
        )));
    }
    let ckpt = cmvrp_ckpt::read_checkpoint(Path::new(path)).map_err(UsageError)?;
    match *threads {
        None => *threads = Some(ckpt.threads as usize),
        Some(n) if n as u64 != ckpt.threads => {
            return Err(UsageError(format!(
                "--threads={n} disagrees with the checkpoint, which \
                 was written under --threads={}; supported \
                 alternatives: drop --threads to inherit it from the \
                 checkpoint, or start a fresh run (without \
                 --resume-from) under the new worker count",
                ckpt.threads
            )))
        }
        Some(_) => {}
    }
    Ok(ckpt)
}

pub(crate) fn simulate(a: &Args) -> Outcome {
    let sc = parse_workload(a.pos(0))?;
    if !sc.faults.is_empty() {
        return Err(UsageError(format!(
            "scenario {:?} scripts faults (crash_at_rounds); `cmvrp simulate` \
             runs fault-free — supported alternatives: execute the script \
             with `cmvrp scenario run`, or drop the [faults] section",
            sc.label()
        )));
    }
    let mut flags = RunFlags::read(a)?;
    flags.online.monitored = a.has("monitored");
    let checkpoint = a.value("checkpoint");
    let checkpoint_every = a.num::<u64>("checkpoint-every")?;
    if checkpoint_every == Some(0) {
        return Err(UsageError("--checkpoint-every must be at least 1".into()));
    }
    let stop_at = a.num::<u64>("stop-at-round")?;
    if stop_at == Some(0) {
        return Err(UsageError(
            "--stop-at-round=0 names no round: rounds count from 1; \
             supported alternatives: --stop-at-round=1 to stop after \
             the first round, or drop --stop-at-round to run to \
             completion"
                .into(),
        ));
    }
    let force = a.value("progress") == Some("force");
    if a.has("progress") && !force && !std::io::stderr().is_terminal() {
        return Err(UsageError(
            "--progress paints a live line on stderr and needs a \
             terminal; supported alternatives: --progress=force to \
             paint anyway (e.g. into a log), or --profile to record \
             per-round samples into the trace for offline analysis \
             with `cmvrp trace profile`"
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
    let resume_from = a.value("resume-from");
    let resume = resume_from
        .map(|path| read_resume(path, &mut flags.threads))
        .transpose()?;
    let exec = flags
        .exec()
        .profile(a.has("profile"))
        .progress(a.has("progress"))
        .checkpoint(CheckpointPolicy {
            every: checkpoint.map(|_| checkpoint_every.unwrap_or(1)),
            stop_at,
        });
    // The scenario layer owns workload materialization, so flag-built and
    // scenario-file runs stay trace-identical.
    let (bounds, _, jobs) = sc.generate(flags.online.seed).map_err(usage_error)?;
    let mut out = String::new();
    if let (Some(ckpt), Some(path)) = (&resume, resume_from) {
        let _ = writeln!(
            out,
            "resume: round {} from {path} ({} trace events behind us)",
            ckpt.rounds_completed, ckpt.trace_events
        );
    }
    // The checkpoint observer: write each snapshot atomically, remembering
    // the first I/O failure (surfaced after the run — the run itself is
    // not aborted by a bad disk).
    let (mut snapshots, mut last_round, mut ckpt_io) = (0u64, 0u64, None);
    let mut observer = |c: EngineCheckpoint| {
        let Some(path) = checkpoint else { return };
        snapshots += 1;
        last_round = c.rounds_completed;
        if ckpt_io.is_none() {
            if let Err(e) = cmvrp_ckpt::write_checkpoint(Path::new(path), &c) {
                ckpt_io = Some(format!("checkpoint write to {path:?} failed: {e}"));
            }
        }
    };
    let (run, traced) = flags.traced(|sink| {
        exec.execute_with_checkpoints(
            bounds,
            &jobs,
            flags.online,
            sink,
            resume.as_ref(),
            &mut observer,
        )
        .map_err(usage_error)
    })?;
    out.push_str(&traced);
    if let Some(e) = ckpt_io {
        return Err(UsageError(e));
    }
    if let Some(path) = checkpoint {
        let _ = writeln!(
            out,
            "checkpoint: {snapshots} snapshot(s) -> {path} (last at round {last_round})"
        );
    }
    out.push_str(&flags.verdict(run.check.as_ref())?);
    render_report(&mut out, &sc.label(), &run.report);
    if a.has("metrics") {
        let rows = run.metrics.rows().into_iter().map(|(k, v)| [k, v]);
        let _ = write!(out, "\nmetrics:\n{}", table(["metric", "value"], rows));
    }
    Ok((out, 0))
}

/// Loads a scenario file for the `scenario` subcommands; the bare path
/// and the `@path` spec spelling are both accepted.
fn load_scenario(path: &str) -> Result<Scenario, UsageError> {
    Scenario::from_spec(&format!("@{}", path.strip_prefix('@').unwrap_or(path))).map_err(UsageError)
}

/// `rounds` as the comma-separated list the scenario lines print.
fn round_list(rounds: &[u64]) -> String {
    let rounds: Vec<String> = rounds.iter().map(u64::to_string).collect();
    rounds.join(", ")
}

/// Renders the descriptive header shared by `scenario check` and
/// `scenario run`.
fn render_scenario_header(out: &mut String, sc: &Scenario, jobs: u64) {
    let side = sc.side();
    let vehicles = side * side;
    let _ = writeln!(out, "substrate: {side}x{side} grid, {vehicles} vehicles");
    let _ = writeln!(out, "demand: {} ({jobs} jobs)", sc.demand.label());
    let _ = writeln!(out, "arrivals: {}", sc.arrivals.label());
    if sc.faults.is_empty() {
        let _ = writeln!(out, "faults: none");
    } else {
        let rounds = round_list(&sc.faults.crash_at_rounds);
        let _ = writeln!(out, "faults: crash at rounds {rounds}");
    }
}

pub(crate) fn scenario_check(a: &Args) -> Outcome {
    let sc = load_scenario(a.pos(0))?;
    let (_, demand) = sc.demand.generate().map_err(usage_error)?;
    let mut out = format!("scenario ok: {}\n", sc.label());
    render_scenario_header(&mut out, &sc, demand.total());
    let name = |b: &Baseline| match b {
        Baseline::Becker => "becker",
        Baseline::Gn => "gn",
    };
    let names: Vec<&str> = sc.report.baselines.iter().map(name).collect();
    let report = match names.as_slice() {
        [] => "protocol only".to_string(),
        names => names.join(", "),
    };
    let _ = writeln!(out, "report: {report}");
    Ok((out, 0))
}

/// `scenario run <file>`: one protocol run (honoring the `[faults]`
/// crash+resume script) and the `[report]` baselines over the same
/// instance, summarized as paper bound · baseline cost · protocol cost ·
/// ratio.
pub(crate) fn scenario_run(a: &Args) -> Outcome {
    let path = a.pos(0);
    let sc = load_scenario(path)?;
    let flags = RunFlags::read(a)?;
    let (online, exec) = (flags.online, flags.exec());
    let (bounds, demand, jobs) = sc.generate(online.seed).map_err(usage_error)?;
    // ω* depends only on the demand. Solving it before the protocol run
    // keeps the solver's flow network from stacking on top of the heap the
    // run frees but the allocator keeps: solved afterwards, the two set
    // the command's peak RSS together.
    let inst = Instance::new(bounds, demand.clone());
    let star = inst.omega_star().value;

    // The protocol run: one-shot when fault-free; with a fault script,
    // advance to each crash round, snapshot, tear the session down, and
    // resume from the snapshot — the same checkpoint/resume seams
    // `simulate --checkpoint/--resume-from` exercises across processes.
    let mut crashed_at: Vec<u64> = Vec::new();
    let (execution, traced) = flags.traced(|sink| {
        if sc.faults.is_empty() {
            return exec
                .execute(bounds, &jobs, online, sink)
                .map_err(usage_error);
        }
        let mut session = exec.build(bounds, &jobs, online).map_err(usage_error)?;
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
                .map_err(usage_error)?;
        }
        session.drain(sink);
        Ok(session.finish())
    })?;

    let mut out = format!("scenario: {} ({path})\n", sc.label());
    render_scenario_header(&mut out, &sc, demand.total());
    if !crashed_at.is_empty() {
        let rounds = round_list(&crashed_at);
        let _ = writeln!(
            out,
            "recovery: crashed + resumed from snapshot at rounds {rounds}"
        );
    }
    out.push_str(&traced);
    out.push_str(&flags.verdict(execution.check.as_ref())?);

    // The comparison table: paper bounds from Chapter 2, the [report]
    // baselines, and the protocol's empirical cost — all on the same
    // demand instance.
    let report = &execution.report;
    let capacity = sc.report.capacity.unwrap_or(report.capacity).max(1);
    let fleet = (sc.report.vehicles).unwrap_or_else(|| demand.total().div_ceil(capacity).max(1));
    let ratio = |cost: u64, bound: f64| {
        let ratio = (bound > 0.0).then(|| format!("{:.2}x", cost as f64 / bound));
        ratio.unwrap_or_else(|| "-".into())
    };
    fn row(quantity: &str, value: impl ToString, vs: String) -> [String; 3] {
        [quantity.into(), value.to_string(), vs]
    }
    let mut rows = vec![
        row("omega_c (Cor 2.2.7)", inst.omega_c(), "-".into()),
        row("omega* (Thm 1.4.1)", star, "-".into()),
    ];
    for baseline in &sc.report.baselines {
        rows.extend(match baseline {
            Baseline::Becker => {
                let b = baselines::becker(&bounds, &demand, capacity);
                let vs = ratio(b.tour_cost, b.lower_bound as f64);
                let bound = format!("becker tree-CVRP bound (Q={capacity})");
                let tours = format!("becker tree-CVRP tours (n={})", b.tours);
                [
                    row(&bound, b.lower_bound, "-".into()),
                    row(&tours, b.tour_cost, vs),
                ]
            }
            Baseline::Gn => {
                let g = baselines::gn_makespan(&bounds, &demand, capacity, fleet);
                let vs = ratio(g.makespan, g.lower_bound as f64);
                let bound = format!("gn makespan bound (m={fleet})");
                let makespan = row("gn makespan (sweep+LPT)", g.makespan, vs);
                [row(&bound, g.lower_bound, "-".into()), makespan]
            }
        });
    }
    let (w, used, star) = (report.capacity, report.max_energy_used, star.to_f64());
    let served = format!("{}/{}", report.served, report.served + report.unserved);
    rows.extend([
        row("protocol capacity W", w, ratio(w, star)),
        row("protocol max energy", used, ratio(used, star)),
        row("protocol served", served, "-".into()),
    ]);
    out.push_str(&table(["quantity", "value", "vs bound"], rows));
    Ok((out, 0))
}
