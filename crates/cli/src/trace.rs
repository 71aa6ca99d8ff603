//! The `trace` commands: analytics over a recorded trace in either
//! encoding. Every command folds the events of the one reader in
//! `cmvrp-obs` ([`cmvrp_obs::LoadedTrace::events`]) and renders an event
//! to JSON only to print it.

use crate::{table, usage_error, Args, Outcome, UsageError};
use cmvrp_obs::{BinSink, Event, JsonlSink, LoadedTrace, Sink, TraceEncoding};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Loads a trace in either encoding through the hardened sniffing loader
/// in `cmvrp-obs` (empty files, truncated magics, partial trailing lines
/// and corrupt frames come back as scoped errors).
fn load(path: &str) -> Result<LoadedTrace, UsageError> {
    cmvrp_obs::load_trace(path).map_err(UsageError)
}

/// Scopes a trace parse error `(line, message)` to `path:line`.
fn at_line(path: &str) -> impl Fn((usize, String)) -> UsageError + '_ {
    move |(line, msg)| UsageError(format!("{path}:{line}: {msg}"))
}

/// Parses the `--where=EXPR` analytics option.
fn parse_where(a: &Args) -> Result<Option<cmvrp_obs::QueryExpr>, UsageError> {
    a.value("where")
        .map(|v| cmvrp_obs::parse_query(v).map_err(|e| UsageError(format!("--where: {e}"))))
        .transpose()
}

/// `trace stats <trace> [--where=EXPR]`: the run's summary plus an
/// identity header (encoding, schema version, event count), optionally
/// restricted to events matching a query expression.
pub(crate) fn stats(a: &Args) -> Outcome {
    let path = a.pos(0);
    let filter = parse_where(a)?;
    let trace = load(path)?;
    let kept = trace.events().filter(|item| match (item, &filter) {
        (Ok((_, ev)), Some(expr)) => expr.matches(ev),
        _ => true,
    });
    let summary = cmvrp_obs::summarize(kept).map_err(at_line(path))?;
    let mut out = format!("trace stats of {path}: {}\n", trace.header());
    if filter.is_some() {
        let (matched, events) = (summary.events, trace.events);
        let _ = writeln!(out, "where: {matched} of {events} events match");
    }
    let rows = summary.rows().into_iter().map(|(k, v)| [k, v]);
    out.push_str(&table(["quantity", "value"], rows));
    Ok((out, 0))
}

/// `trace diff <a> <b> [--context=N]`: first semantic divergence between
/// two traces. Exit status 0 when identical, 1 when divergent.
pub(crate) fn diff(args: &Args) -> Outcome {
    let (a, b) = (args.pos(0), args.pos(1));
    let context = args.num("context")?.unwrap_or(3);
    let trace_a = load(a)?;
    let trace_b = load(b)?;
    let report = cmvrp_obs::diff_traces(&trace_a, &trace_b, context).map_err(|e| {
        let path = match e.side {
            cmvrp_obs::Side::A => a,
            cmvrp_obs::Side::B => b,
        };
        UsageError(format!("{path}: {e}"))
    })?;
    let mut out = format!(
        "diff A={a} ({}) vs B={b} ({})\n",
        trace_a.header(),
        trace_b.header()
    );
    let Some(d) = report.divergence else {
        let _ = writeln!(out, "identical: {} events agree", report.matched);
        return Ok((out, 0));
    };
    let band = d.time.map(|t| format!(", time band t={t}"));
    let band = band.unwrap_or_default();
    let _ = writeln!(
        out,
        "first divergence at line {} (after {} matching events{band})",
        d.line, report.matched
    );
    use cmvrp_obs::DivergenceKind::*;
    let _ = match &d.kind {
        PayloadDrift { kind, fields } => {
            let _ = writeln!(out, "payload drift: same {kind} event, differing fields:");
            for f in fields {
                let _ = writeln!(out, "  {}: {} (A) vs {} (B)", f.field, f.a, f.b);
            }
            Ok(())
        }
        Reordered { t, band_len } => writeln!(
            out,
            "pure reordering within time band t={t}: the {band_len} remaining events \
             of the band carry the same multiset in a different order \
             (a merge-determinism bug, not a behavioral difference)"
        ),
        EventSet { a_kind, b_kind } => {
            writeln!(
                out,
                "different event sets: A carries {a_kind}, B carries {b_kind}"
            )
        }
        Truncated { longer, extra } => {
            let longer = longer.name();
            writeln!(
                out,
                "truncation: trace {longer} has {extra} extra event(s) the other lacks"
            )
        }
    };
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
pub(crate) fn query(a: &Args) -> Outcome {
    let (expr_src, path) = (a.pos(0), a.pos(1));
    let expr = cmvrp_obs::parse_query(expr_src).map_err(usage_error)?;
    let trace = load(path)?;
    let mut out = String::new();
    let mut matched = 0usize;
    for item in trace.events() {
        let (n, ev) = item.map_err(at_line(path))?;
        if expr.matches(&ev) {
            matched += 1;
            let _ = writeln!(out, "{n}: {}", ev.to_json());
        }
    }
    let _ = writeln!(
        out,
        "matched {matched} of {} events in {path} ({})",
        trace.events,
        trace.header()
    );
    Ok((out, 0))
}

/// `trace explain <sel> <trace>`: the happens-before chain leading to a
/// chosen event, reconstructed from the checker's causal index. Selectors:
/// `job:<seq>` (its serve, or arrival if unserved), `proc:<id>` (the
/// process' last act), `line:<n>` (an exact trace line). The index holds
/// no event, so the chain's lines are rendered by a second pass.
pub(crate) fn explain(a: &Args) -> Outcome {
    let (selector, path) = (a.pos(0), a.pos(1));
    const CHAIN_CAP: usize = 12;
    let trace = load(path)?;
    let mut checker = cmvrp_obs::TraceChecker::new();
    checker.record_causality();
    checker
        .observe_trace(&trace, |_, _, _| {})
        .map_err(at_line(path))?;
    let ix = checker.into_causal_index().expect("causality recorded");
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
    let chain = ix.chain(target, CHAIN_CAP);
    let target_node = ix.node(target).expect("target resolved above");
    let lines = chain.iter().chain([&target_node]).map(|node| node.line);
    let json = trace.render(lines).map_err(at_line(path))?;
    let render = |n: &cmvrp_obs::CausalNode| {
        let actor = n.actor.map(|(p, l)| format!("  [proc {p}, lamport {l}]"));
        let (line, actor) = (n.line, actor.unwrap_or_default());
        format!("line {line}: {}{actor}", json[&line])
    };
    let mut out = format!("explain {selector} in {path} ({})\n", trace.header());
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
    let _ = writeln!(out, "  => {}", render(target_node));
    Ok((out, 0))
}

/// `trace convert <in> <out>`: lossless JSONL ↔ binary translation, the
/// direction inferred from the input's encoding. The input is read through
/// the same loader as every other trace subcommand, so it refuses the same
/// files. The output is encoded in memory and written only once every
/// event has been read: a corrupt input writes nothing, in one pass over a
/// JSONL input, and `convert t t` reads `t` before it replaces it.
pub(crate) fn convert(a: &Args) -> Outcome {
    let (input, output) = (a.pos(0), a.pos(1));
    let trace = load(input)?;
    let (from, to, bytes) = match trace.encoding {
        TraceEncoding::Binary => {
            let bytes = encode(&trace, JsonlSink::new(Vec::new()), JsonlSink::into_writer);
            ("binary", "jsonl", bytes)
        }
        TraceEncoding::Jsonl => {
            let bytes = encode(&trace, BinSink::new(Vec::new()), BinSink::into_writer);
            ("jsonl", "binary", bytes)
        }
    };
    std::fs::write(output, bytes.map_err(at_line(input))?)
        .map_err(|e| UsageError(format!("cannot write {output:?}: {e}")))?;
    let events = trace.events;
    let out = format!("converted {input} ({from}) -> {output} ({to}): {events} events\n");
    Ok((out, 0))
}

/// Records every event of `trace` into an in-memory sink and returns the
/// bytes it wrote.
fn encode<S: Sink>(
    trace: &LoadedTrace,
    mut sink: S,
    bytes: fn(S) -> std::io::Result<Vec<u8>>,
) -> Result<Vec<u8>, (usize, String)> {
    for item in trace.events() {
        sink.record(&item?.1);
    }
    Ok(bytes(sink).expect("writing to memory cannot fail"))
}

/// `trace profile <trace>`: aggregates the flight recorder's
/// `round_profile` samples into a per-worker phase breakdown and a
/// bucketed round timeline.
pub(crate) fn profile(a: &Args) -> Outcome {
    /// One worker's samples summed, or one round's summed over workers.
    #[derive(Default)]
    struct Acc {
        rounds: u64,
        busy: u64,
        barrier: u64,
        steals: u64,
    }
    let path = a.pos(0);
    let trace = load(path)?;
    let mut per: BTreeMap<u64, Acc> = BTreeMap::new();
    // round -> (its workers' samples, merge, sink); merge/sink are
    // replicated on every worker's sample, so assignment keeps one copy.
    let mut rounds: BTreeMap<u64, (Acc, u64, u64)> = BTreeMap::new();
    for item in trace.events() {
        let (_, ev) = item.map_err(at_line(path))?;
        let Event::RoundProfile {
            round,
            worker,
            busy_ns,
            barrier_wait_ns,
            merge_ns,
            sink_ns,
            steals,
            ..
        } = ev
        else {
            continue;
        };
        let (busy, barrier) = (busy_ns.max(0) as u64, barrier_wait_ns.max(0) as u64);
        let r = rounds.entry(round).or_default();
        for acc in [per.entry(worker).or_default(), &mut r.0] {
            acc.rounds += 1;
            acc.busy += busy;
            acc.barrier += barrier;
            acc.steals += steals;
        }
        (r.1, r.2) = (merge_ns.max(0) as u64, sink_ns.max(0) as u64);
    }
    if per.is_empty() {
        let out = format!(
            "no round_profile samples in {path}; record them with \
             `cmvrp simulate <workload> --threads=N --profile`\n"
        );
        return Ok((out, 0));
    }
    let ms = |ns: u64| format!("{:.3}", ns as f64 / 1e6);
    let row = |who: String, acc: &Acc| {
        let util = 100.0 * acc.busy as f64 / (acc.busy + acc.barrier).max(1) as f64;
        let (busy, barrier, util) = (ms(acc.busy), ms(acc.barrier), format!("{util:.1}"));
        let (rounds, steals) = (acc.rounds.to_string(), acc.steals.to_string());
        [who, rounds, busy, barrier, util, steals]
    };
    let workers = per.len() as u64;
    let all = Acc {
        rounds: rounds.len() as u64,
        busy: per.values().map(|acc| acc.busy).sum(),
        barrier: per.values().map(|acc| acc.barrier).sum(),
        steals: per.values().map(|acc| acc.steals).sum(),
    };
    let mut rows: Vec<_> = per
        .iter()
        .map(|(worker, acc)| row(worker.to_string(), acc))
        .collect();
    rows.push(row("all".into(), &all));
    let header = [
        "worker",
        "rounds",
        "busy_ms",
        "barrier_ms",
        "util%",
        "steals",
    ];
    let mut out = format!(
        "profile of {path}: {} rounds, {workers} workers\n",
        rounds.len()
    );
    out.push_str(&table(header, rows));
    let stepping = (all.busy + all.barrier) / workers;
    let merge: u64 = rounds.values().map(|r| r.1).sum();
    let sink: u64 = rounds.values().map(|r| r.2).sum();
    let (recorded, stepping) = (ms(stepping + merge + sink), ms(stepping));
    let (merge, sink) = (ms(merge), ms(sink));
    let _ = writeln!(
        out,
        "phases: stepping {stepping} ms + merge {merge} ms + sink {sink} ms = {recorded} ms recorded"
    );
    // Bucketed utilization timeline: at most 20 buckets of consecutive
    // rounds, each bar char worth 5% of worker utilization.
    let ordered: Vec<(u64, (Acc, u64, u64))> = rounds.into_iter().collect();
    let bucket_size = ordered.len().div_ceil(20);
    let _ = writeln!(
        out,
        "timeline ({bucket_size} rounds/bucket, each # = 5% busy):"
    );
    for bucket in ordered.chunks(bucket_size) {
        let busy: u64 = bucket.iter().map(|(_, r)| r.0.busy).sum();
        let wall: u64 = bucket.iter().map(|(_, r)| r.0.busy + r.0.barrier).sum();
        let util = 100.0 * busy as f64 / wall.max(1) as f64;
        let bar = "#".repeat((util / 5.0).round() as usize);
        let (first, last) = (bucket[0].0, bucket[bucket.len() - 1].0);
        let _ = writeln!(out, "  rounds {first:>5}-{last:<5} {util:>5.1}% {bar}");
    }
    Ok((out, 0))
}

pub(crate) fn check(a: &Args) -> Outcome {
    let path = a.pos(0);
    let capacity = a.num("capacity")?;
    let trace = load(path)?;
    let report = cmvrp_obs::check_trace(&trace, capacity).map_err(at_line(path))?;
    let (events, n) = (report.events, report.violations.len());
    if report.is_clean() {
        let (count, names) = (report.active.len(), report.active.join(", "));
        let out = format!("trace OK: {events} events, {count} invariants checked ({names})\n");
        return Ok((out, 0));
    }
    let mut msg = format!("trace FAILED: {n} violation(s) in {events} events\n");
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
    if n > 10 {
        let _ = writeln!(msg, "... and {} more", n - 10);
    }
    Err(UsageError(msg))
}

pub(crate) fn timeline(a: &Args) -> Outcome {
    let (proc_arg, path) = (a.pos(0), a.pos(1));
    let proc: usize = proc_arg
        .parse()
        .map_err(|_| UsageError(format!("bad process id {proc_arg:?}")))?;
    let filter = parse_where(a)?;
    let trace = load(path)?;
    let mut checker = cmvrp_obs::TraceChecker::new();
    let mut rows = Vec::new();
    // The checker attributes each event to one acting process and advances
    // that process' Lamport clock; the timeline is the slice of that ledger
    // belonging to `proc`.
    checker
        .observe_trace(&trace, |n, ev, acted| {
            if let Some((actor, lamport)) = acted {
                if actor == proc && filter.as_ref().is_none_or(|expr| expr.matches(ev)) {
                    rows.push([n.to_string(), lamport.to_string(), ev.to_json()]);
                }
            }
        })
        .map_err(at_line(path))?;
    let shown = rows.len();
    let filtered = filter.map_or("", |_| " matching --where");
    let table = table(["line", "lamport", "event"], rows);
    let out = format!("timeline of process {proc} ({shown}{filtered} events):\n{table}");
    Ok((out, 0))
}

pub(crate) fn spans(a: &Args) -> Outcome {
    let path = a.pos(0);
    let trace = load(path)?;
    // name -> (count, total_ns, max_ns)
    let mut agg: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for item in trace.events() {
        if let (
            _,
            Event::PhaseSpan {
                name,
                start_ns,
                end_ns,
            },
        ) = item.map_err(at_line(path))?
        {
            let ns = end_ns.saturating_sub(start_ns);
            let e = agg.entry(name).or_insert((0, 0, 0));
            (e.0, e.1, e.2) = (e.0 + 1, e.1 + ns, e.2.max(ns));
        }
    }
    if agg.is_empty() {
        return Ok((format!("no phase spans in {path}\n"), 0));
    }
    let mut rows: Vec<(String, (u64, u64, u64))> = agg.into_iter().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1 .1)); // heaviest first
    let rows = rows.into_iter().map(|(name, (count, total, max))| {
        let mean = format!("{:.0}", total as f64 / count as f64);
        let (count, total, max) = (count.to_string(), total.to_string(), max.to_string());
        [name, count, total, mean, max]
    });
    let table = table(["span", "count", "total_ns", "mean_ns", "max_ns"], rows);
    Ok((format!("spans of {path}:\n{table}"), 0))
}
