//! # cmvrp-obs — zero-dependency observability for the CMVRP simulators
//!
//! This crate provides the tracing, metrics, and structured event-log
//! layer used by `cmvrp-net`, `cmvrp-online`, `cmvrp-core`, and
//! `cmvrp-flow`. It deliberately depends on **nothing** outside `std`:
//! JSON is hand-rolled, sinks are plain structs, and the disabled path
//! ([`NullSink`]) monomorphizes away so instrumented simulators cost the
//! same as uninstrumented ones.
//!
//! ## Pieces
//!
//! - [`json`] / [`frame`] — the one implementation of each format the
//!   workspace reads back: the flat-JSON reader and string escaper (trace
//!   events, `trace diff`, the `cmvrp serve` wire), and the
//!   length-prefixed binary frame codec under both `CMVB` traces and
//!   `CMVC` checkpoints, with its scoped [`FrameError`].
//! - [`Event`] — the typed trace vocabulary (messages, jobs, diffusion
//!   lifecycle, replacement cycles, heartbeat misses, wall-clock phase
//!   spans).
//! - [`Sink`] — where events go: [`NullSink`] (default, free),
//!   [`RingSink`] (bounded in-memory tail, used by tests), [`JsonlSink`]
//!   (streaming JSON-lines file, used by `--trace-jsonl`), [`BinSink`]
//!   (streaming binary frames, used by `--trace-bin`; see [`bin`]),
//!   [`VecSink`] (unbounded buffer, used by the sharded engine's
//!   per-shard streams).
//! - [`Metrics`] / [`Histogram`] — always-on counters, gauges, and
//!   fixed-bucket histograms (message latency, per-vehicle energy, queue
//!   depth).
//! - [`Span`] / [`now_ns`] — wall-clock phase timing for the offline
//!   algorithms.
//! - [`replay`] — rebuild a run's headline numbers from a trace alone
//!   (`cmvrp trace stats`).
//! - [`check`] — streaming invariant monitors ([`TraceChecker`],
//!   [`MergeChecker`]) that verify a run *obeyed the protocol*: energy ≤
//!   capacity `W`, per-channel FIFO with delivered⇒sent causality,
//!   Dijkstra–Scholten deficit counting, no activity after a crash,
//!   replacement-cycle liveness. See the [`check`] module docs for the
//!   full invariant catalog and the derived Lamport-clock semantics.
//!   With [`TraceChecker::record_causality`] it also builds a
//!   [`CausalIndex`] — the happens-before graph behind `cmvrp trace
//!   explain` and the causal chains attached to violations.
//! - [`load`] — the encoding-sniffing trace loader ([`load_trace`]):
//!   normalizes JSONL and binary files to canonical JSONL text with a
//!   scoped error for every truncation/corruption shape.
//! - [`diff`] — semantic trace comparison ([`diff_lines`]): localizes the
//!   first divergence between two runs and classifies it (payload drift /
//!   reordering within a time band / different event set / truncation).
//! - [`query`] — a small filter expression language over events
//!   ([`parse_query`]), e.g. `kind=delivered and proc=7 and time>=12`,
//!   powering `cmvrp trace query` and `--where` on the analyzers.
//!
//! ## JSONL schema
//!
//! A trace is a sequence of lines; each line is one flat JSON object with
//! an `"ev"` tag naming its kind. All numbers are non-negative integers
//! except position coordinates, which may be negative. Positions are
//! arrays of integers (one per grid dimension). Simulation times `t` are
//! the discrete-event clock of `cmvrp-net`; `*_ns` fields are wall-clock
//! nanoseconds since the process observability epoch ([`now_ns`]).
//!
//! | `ev` | fields | meaning |
//! |---|---|---|
//! | `msg_sent` | `t, from, to[, kind]` | message accepted for delivery |
//! | `msg_delivered` | `t, from, to, delay[, kind]` | message handed to recipient; `delay = t - send time` |
//! | `msg_dropped` | `t, from, to, reason[, kind]` | message lost; `reason` is `"lost"` (fault injection) or `"crashed"` (recipient dead) |
//! | `job_arrived` | `t, seq, pos` | driver released job `seq` at `pos` |
//! | `job_served` | `t, seq, vehicle, cost` | job served; `cost` is the energy charged |
//! | `diffusion_started` | `t, initiator, generation` | Dijkstra–Scholten replacement search began |
//! | `diffusion_completed` | `t, initiator, generation, found` | search terminated at its initiator |
//! | `replacement_cycle` | `t, vehicle, dest, dist` | summoned vehicle arrived and activated at `dest`; `dist` is the Manhattan distance walked (energy charged) |
//! | `heartbeat_missed` | `t, watcher, peer` | monitored peer went silent past the timeout (`t` is the watcher's tick-round clock, *not* simulation time) |
//! | `fleet_provisioned` | `t, vehicles, capacity` | fleet size and per-vehicle battery capacity `W` at startup |
//! | `process_crashed` | `t, proc` | process `proc` crashed (fault injection); silent afterwards |
//! | `phase_span` | `name, start_ns, end_ns` | named wall-clock phase (e.g. `"alg1.coarsen"`) |
//! | `round_profile` | `round, worker, workers, busy_ns, barrier_wait_ns, merge_ns, sink_ns, events, steals` | flight-recorder sample: one worker's wall-clock split for one lockstep round (`steals` is always 0, kept for the CMVB layout) |
//!
//! The optional `kind` field, when the network has a message classifier,
//! tags transport events with their protocol role: `"query"`, `"reply"`,
//! `"move"`, or `"heartbeat"`. The Dijkstra–Scholten deficit monitor in
//! [`check`] needs it and stays idle on unannotated traces. There is no
//! Lamport-clock field in the trace: logical clocks are *derived* by
//! [`TraceChecker`] from send/deliver causality (see the [`check`]
//! module docs) and surfaced by `cmvrp trace timeline`.
//!
//! Example lines:
//!
//! ```text
//! {"ev":"msg_sent","t":3,"from":1,"to":2}
//! {"ev":"msg_delivered","t":5,"from":1,"to":2,"delay":2}
//! {"ev":"job_arrived","t":9,"seq":0,"pos":[5,-5]}
//! {"ev":"phase_span","name":"alg1.coarsen","start_ns":12,"end_ns":456}
//! ```
//!
//! The schema is append-only: readers must ignore unknown fields, and new
//! event kinds may appear in later versions. Lines are read by the one
//! flat-JSON reader, [`json::Object`], and strings are written by its
//! escaper, [`json::quote`]: string values (the `phase_span` name)
//! accept the escapes `\" \\ \/ \n \t \r \uXXXX`, so every event is
//! exactly one line whatever its name holds. A key repeated within one
//! line is an error. [`jsonl_events`] reads a whole trace, numbering
//! physical lines.
//!
//! The same vocabulary also has a compact binary form ([`bin`]): a
//! magic/versioned header followed by length-prefixed varint frames,
//! written by [`BinSink`] and decoded by [`decode_trace`]. `cmvrp trace
//! convert` translates between the two losslessly, and every trace
//! consumer sniffs the magic bytes to accept either encoding.
//!
//! ## Example
//!
//! ```
//! use cmvrp_obs::{Event, JsonlSink, Sink, replay};
//!
//! let mut sink = JsonlSink::new(Vec::new());
//! sink.record(&Event::JobArrived { t: 1, seq: 0, pos: vec![3, 4] });
//! sink.record(&Event::JobServed { t: 1, seq: 0, vehicle: 9, cost: 1 });
//! let trace = sink.into_writer().unwrap();
//! let text = String::from_utf8(trace).unwrap();
//! let summary = replay::summarize(text.lines()).unwrap();
//! assert_eq!(summary.jobs_served, 1);
//! assert_eq!(summary.jobs_unserved(), 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bin;
pub mod check;
pub mod diff;
pub mod event;
pub mod frame;
pub mod json;
pub mod load;
pub mod metrics;
pub mod query;
pub mod replay;
pub mod sink;
pub mod span;

pub use bin::{decode_trace, is_binary_trace, BinSink};
pub use check::{
    check_lines, CausalIndex, CausalNode, CheckReport, MergeChecker, TraceChecker, Violation,
    INVARIANTS,
};
pub use diff::{diff_lines, DiffError, DiffReport, Divergence, DivergenceKind, FieldDelta, Side};
pub use event::{jsonl_events, DropReason, Event, MsgKind};
pub use frame::FrameError;
pub use load::{load_trace, load_trace_bytes, LoadedTrace, TraceEncoding, JSONL_SCHEMA_VERSION};
pub use metrics::{Histogram, Metrics, DEFAULT_BUCKETS};
pub use query::{parse_query, Expr as QueryExpr, QueryError};
pub use replay::{summarize, ReplaySummary};
pub use sink::{JsonlSink, NullSink, RingSink, Sink, StaticSink, VecSink};
pub use span::{now_ns, Span};
