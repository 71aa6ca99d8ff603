//! The command table: every subcommand's words, positional arguments,
//! flags with their help text, the function that runs it and its usage
//! text. The usage screen, dispatch and every usage error read it. It is
//! laid out by hand, like the screen it renders.

use crate::args::{cmd, Arg, Command, Flag};
use crate::{ckpt, help, offline, run, serve, trace};

const TRACE: Arg = Arg::new("trace", "a trace path");
const WORKLOAD: Arg = Arg::new("workload", "a workload spec");
const SCENARIO: Arg = Arg::new("file", "a scenario file");
const SPEC: Arg = Arg::new("spec", "a spec path");
const EXPERIMENT: Arg =
    Arg { choices: Some(cmvrp_bench::experiment_ids), ..Arg::new("id", "an id") };
const DEMANDS: Arg = Arg { many: true, ..Arg::new("demand", "at least one demand value") };
const INPUT: Arg = Arg::new("in", "an input");
const OUTPUT: Arg = Arg::new("out", "an output path");
const A: Arg = Arg::new("a", "a first trace path");
const B: Arg = Arg::new("b", "a second trace path");
const SELECTOR: Arg = Arg::new("sel", "a selector (job:<seq>|proc:<id>|line:<n>)");
const ADDR: Arg = Arg::new("addr", "a server address, e.g. `cmvrp serve send 127.0.0.1:7077` \
    (the address `serve listen` printed)");

const SEED: Flag = Flag("--seed=S", "run seed: message delays, and the default arrival seed \
    (default 1)");
const CAPACITY: Flag = Flag("--capacity=W", "override the Lemma 3.3.1 provisioning");
const THREADS: Flag = Flag("--threads=N", "worker threads (default 1); traces and summaries are \
    the same for every N");
const CHECK: Flag = Flag("--check", "verify the invariant monitors inline while the run streams \
    (per-shard monitors plus merge-time cross-shard monitors); any violation fails the run \
    naming the event and invariant");
const TRACE_JSONL: Flag = Flag("--trace-jsonl=P", "stream every event as JSON lines to path P");
const WHERE: Flag = Flag("--where=EXPR", "restrict to events matching a query expression (same \
    language as `cmvrp trace query`)");
const CONTEXT: Flag = Flag("--context=N", "surrounding events to show around the first \
    divergence (default 3)");
const TRACE_CAPACITY: Flag = Flag("--capacity=W", "battery capacity for traces without \
    fleet_provisioned");
const CAMPAIGN: &[Flag] = &[
    Flag("--dir=D", "checkpoint + state directory (default <spec>.campaign)"),
    Flag("--bin=P", "cmvrp binary to spawn per run (default: this executable)"),
];
const SIMULATE: &[Flag] = &[
    SEED,
    CAPACITY,
    THREADS,
    Flag("--monitored", "enable the §3.2.5 heartbeat ring: each shard ticks its own cubes \
        after every job it releases; combines with every other option"),
    TRACE_JSONL,
    Flag("--trace-bin=P", "stream every event in the length-prefixed binary format to path P \
        (same events, ~5x the write throughput; decode with `cmvrp trace convert`); not \
        combinable with --trace-jsonl"),
    Flag("--profile", "flight recorder: append one round_profile sample per worker per round \
        to the trace — busy/barrier/merge/sink nanoseconds and event counts; analyze with \
        `cmvrp trace profile`"),
    Flag("--progress[=force]", "live progress line on stderr (needs a terminal; \
        --progress=force paints without one)"),
    Flag("--checkpoint=F", "write a CMVC snapshot of the run to F at round barriers, \
        atomically; resume with --resume-from, inspect with `cmvrp ckpt inspect`"),
    Flag("--checkpoint-every=R", "snapshot every R rounds (default 1; counts absolute rounds, \
        so a resumed run keeps the cadence; needs --checkpoint)"),
    Flag("--stop-at-round=K", "stop after round K (rounds count from 1); with --checkpoint the \
        final snapshot lands at K"),
    Flag("--resume-from=F", "continue a run from checkpoint F; the resumed trace tail is \
        byte-identical to the uninterrupted run's, so concatenating head and tail traces \
        equals a one-shot trace (verify with `cmvrp trace diff`); --threads defaults to the \
        checkpoint's value and may not disagree with it"),
    Flag("--metrics", "print the always-on metrics registry"),
    CHECK,
];
const SERVE_LISTEN: &[Flag] = &[
    Flag("--addr=H:P", "bind address (default 127.0.0.1:7077; port 0 picks a free port — the \
        chosen address is printed first)"),
    Flag("--max-sessions=N", "sessions one connection may hold open (default 16)"),
    Flag("--connections=N", "serve N connections then exit (default 0: forever)"),
];

/// Every subcommand, in usage-screen order.
pub(crate) const COMMANDS: &[Command] = &[
    cmd(&["solve"], &[WORKLOAD], &[], offline::solve, "off-line bounds + verified plan"),
    cmd(&["simulate"], &[WORKLOAD], SIMULATE, run::simulate, "run the on-line protocol"),
    cmd(&["trace", "check"], &[TRACE], &[TRACE_CAPACITY], trace::check,
        "validate a trace against the invariant monitors"),
    cmd(&["trace", "stats"], &[TRACE], &[WHERE], trace::stats, "summarize a recorded event trace"),
    cmd(&["trace", "timeline"], &[Arg::new("p", "a process id"), TRACE], &[WHERE], trace::timeline,
        "event ledger of process <p> with Lamport clocks"),
    cmd(&["trace", "spans"], &[TRACE], &[], trace::spans, "aggregate wall-clock phase spans"),
    cmd(&["trace", "convert"], &[INPUT, OUTPUT], &[], trace::convert,
        "convert a trace JSONL <-> binary (lossless, direction inferred from the input's \
         encoding)"),
    cmd(&["trace", "profile"], &[TRACE], &[], trace::profile,
        "flight-recorder breakdown of a --profile run"),
    cmd(&["trace", "diff"], &[A, B], &[CONTEXT], trace::diff,
        "first semantic divergence between two traces (exit 0 identical, 1 divergent)"),
    cmd(&["trace", "query"], &[Arg::new("expr", "an expression"), TRACE], &[], trace::query,
        "filter events with a query expression, e.g. 'kind=delivered and proc=7 and t>=12'"),
    cmd(&["trace", "explain"], &[SELECTOR, TRACE], &[], trace::explain,
        "causal chain leading to an event; <sel> is job:<seq>, proc:<id>, or line:<n>"),
    cmd(&["ckpt", "inspect"], &[Arg::new("file", "a checkpoint path")], &[], ckpt::inspect,
        "summarize a CMVC checkpoint file"),
    cmd(&["campaign", "run"], &[SPEC], CAMPAIGN, |a| ckpt::campaign(a, false),
        "run a panel of simulations with per-run checkpoints, retries from the last \
         checkpoint, and a dead-letter list (exit 1 when any run ends up dead)"),
    cmd(&["campaign", "status"], &[Arg::new("dir", "the campaign directory (<spec>.campaign)")],
        &[], ckpt::campaign_status,
        "summarize a campaign's state file (exit 1 when the dead-letter list is non-empty)"),
    cmd(&["campaign", "retry-dead"], &[SPEC], CAMPAIGN, |a| ckpt::campaign(a, true),
        "re-run dead-letter runs with a fresh retry budget, resuming from their checkpoints"),
    cmd(&["serve", "listen"], &[], SERVE_LISTEN, serve::listen,
        "host engine sessions over TCP behind the line-delimited JSON protocol (ops: open, \
         inject, advance, query, trace, close)"),
    cmd(&["serve", "send"], &[ADDR], &[], serve::send,
        "drive a server from stdin: one request line at a time, responses to stdout"),
    cmd(&["scenario", "check"], &[SCENARIO], &[], run::scenario_check,
        "parse + summarize a scenario file"),
    cmd(&["scenario", "run"], &[SCENARIO], &[SEED, CAPACITY, THREADS, CHECK, TRACE_JSONL],
        run::scenario_run,
        "execute a scenario file: protocol run (with its [faults] crash+resume script) plus \
         the [report] baselines, as a summary table of paper bound vs baseline cost vs \
         protocol cost"),
    cmd(&["show"], &[WORKLOAD], &[], offline::show, "render the demand map as ASCII"),
    cmd(&["experiment"], &[EXPERIMENT], &[], offline::experiment, "regenerate a thesis experiment"),
    cmd(&["sweep"], &[Arg::new("shape", "a shape (point|line)"), DEMANDS], &[], offline::sweep,
        "omega* scaling across demands (point|line)"),
    cmd(&["workloads"], &[], &[], offline::workloads, "list workload shapes"),
    cmd(&["help"], &[], &[], help, "this message"),
];

pub(crate) const WORKLOADS: &str = "\
WORKLOADS (inline spec or @file):
  point:grid=N,demand=D
  line:grid=N,demand=D
  square:grid=N,a=A,demand=D
  uniform:grid=N,jobs=J,seed=S
  clusters:grid=N,k=K,jobs=J,seed=S
  @scenario.toml    a scenario file ([substrate]/[demand]/[arrivals]/
                    [faults]/[report], see README \"Scenarios\"); accepted
                    everywhere a workload spec is: simulate, campaign
                    workload= lines, and the serve wire open op

";
