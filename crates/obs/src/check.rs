//! Streaming invariant monitors over the event stream.
//!
//! The emit side of this crate records *what happened*; this module checks
//! that what happened was **legal** — that the simulated protocol actually
//! implements the thesis' algorithm, not merely that its summary statistics
//! look right. The same [`TraceChecker`] runs in two modes:
//!
//! * **online** — wrapped in a [`CheckSink`] around any other [`Sink`], it
//!   validates every event the instant it is emitted (`simulate --check`);
//! * **offline** — fed a recorded JSONL trace line by line
//!   ([`check_lines`], `cmvrp trace check`).
//!
//! ## Invariant catalog
//!
//! | invariant | what it rejects |
//! |---|---|
//! | `clock` | simulation time running backwards across events |
//! | `channel-fifo` | a delivery with no matching send, out-of-order delivery on a channel, a `delay` field inconsistent with the matched send, replies outnumbering queries on a channel pair |
//! | `ds-deficit` | Dijkstra–Scholten violations: nested computations at one initiator, non-increasing generations, completion of a computation that was never started, completion while the initiator's deficit (queries sent − reply signals returned) is nonzero, and computations still open at end of trace |
//! | `job-ledger` | job sequence numbers arriving out of order, serving a job that never arrived, double-serving |
//! | `capacity` | a vehicle's cumulative energy (service costs + relocation distances) exceeding the provisioned `W` |
//! | `crash-silence` | any activity attributed to a crashed process — sends, deliveries to it, serves, diffusion activity, watching |
//! | `replacement-liveness` | a replacement arrival with no preceding successful search; in clean traces (no crashes, no losses, no concurrent searches) a successful search whose summoned vehicle never arrives |
//! | `span` | a phase span ending before it starts |
//! | `profile` | a corrupt flight-recorder sample: negative duration, worker id outside the recorded pool, or a worker's round number failing to strictly increase |
//!
//! Monitors degrade gracefully: the deficit and reply/query checks need the
//! `kind` annotation (see [`MsgKind`]) and stay idle on traces without it;
//! the capacity monitor needs a `fleet_provisioned` event or an explicit
//! [`TraceChecker::set_capacity`].
//!
//! ## Lamport clocks
//!
//! The checker maintains a Lamport clock per process — incremented on every
//! local event and send, and set to `max(own, sender's at send) + 1` on
//! delivery — so `cmvrp trace timeline` can print a causally meaningful
//! ordering next to simulation time. The clock is *derived* by the checker;
//! it is not a trace field.
//!
//! ## Causal index
//!
//! With [`TraceChecker::record_causality`] enabled the checker additionally
//! materializes the happens-before edges it already tracks into a
//! [`CausalIndex`]: program order per process, sent→delivered channel
//! edges, arrival→serve job-ledger edges, start→completion diffusion
//! edges, and completion→replacement summons. `cmvrp trace explain` walks
//! the index backwards to print why an event happened, and every
//! [`Violation`] found while the index is live carries the chain of events
//! leading to the offending one ([`Violation::chain`]). The index stores
//! one node per trace line, so it is for offline forensics; the online
//! [`CheckSink`] leaves it off.

use crate::event::{DropReason, Event, MsgKind};
use crate::sink::{Sink, StaticSink};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Names of all invariants, in reporting order.
pub const INVARIANTS: [&str; 9] = [
    "clock",
    "channel-fifo",
    "ds-deficit",
    "job-ledger",
    "capacity",
    "crash-silence",
    "replacement-liveness",
    "span",
    "profile",
];

/// One invariant violation, tied to the 1-based trace line (or event
/// ordinal, when checking online) that triggered it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant failed (one of [`INVARIANTS`]).
    pub invariant: &'static str,
    /// 1-based line/event number of the offending event; end-of-trace
    /// checks use the last observed line.
    pub line: usize,
    /// Human-readable description of the violation.
    pub detail: String,
    /// Causal chain leading to the offending event, oldest first, as
    /// rendered `line N: {event}` entries. Populated only when the checker
    /// ran with [`TraceChecker::record_causality`]; empty otherwise.
    pub chain: Vec<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {}: [{}] {}",
            self.line, self.invariant, self.detail
        )?;
        if !self.chain.is_empty() {
            write!(f, "\n  caused by:")?;
            for entry in &self.chain {
                write!(f, "\n    {entry}")?;
            }
        }
        Ok(())
    }
}

/// One event of the causal index: its trace line, its happens-before
/// predecessors, and (once known) the acting process and Lamport clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalNode {
    /// 1-based trace line of the event.
    pub line: usize,
    /// The event's wire tag (see [`Event::kind`]).
    pub kind: &'static str,
    /// The event rendered as canonical JSON.
    pub json: String,
    /// Lines of the event's direct happens-before predecessors (program
    /// order plus the cross-process edge, when one exists), ascending.
    pub preds: Vec<usize>,
    /// `(process, Lamport clock after the event)` for events attributable
    /// to one process.
    pub actor: Option<(usize, u64)>,
}

/// The happens-before graph of a trace, recorded by [`TraceChecker`] when
/// [`TraceChecker::record_causality`] is on. See the
/// [module docs](self#causal-index) for the edge catalog.
#[derive(Debug, Default, Clone)]
pub struct CausalIndex {
    /// Nodes indexed by 1-based trace line.
    nodes: Vec<Option<CausalNode>>,
    /// Last line on which each process acted (program-order edge source).
    last_line_of: Vec<Option<usize>>,
    /// Arrival line per job sequence number.
    arrival: Vec<Option<usize>>,
    /// Serve line per job sequence number.
    serve: Vec<Option<usize>>,
    /// Lines of `found=true` diffusion completions, in trace order; the
    /// n-th replacement arrival is summoned by the n-th successful search.
    found_completions: Vec<usize>,
    /// Replacement arrivals seen so far.
    cycles: usize,
}

impl CausalIndex {
    /// The node recorded at `line`, if that line carried an event.
    pub fn node(&self, line: usize) -> Option<&CausalNode> {
        self.nodes.get(line).and_then(Option::as_ref)
    }

    /// The line on which job `seq` was served.
    pub fn serve_line(&self, seq: u64) -> Option<usize> {
        self.serve.get(seq as usize).copied().flatten()
    }

    /// The line on which job `seq` arrived.
    pub fn arrival_line(&self, seq: u64) -> Option<usize> {
        self.arrival.get(seq as usize).copied().flatten()
    }

    /// The last line on which `proc` acted.
    pub fn last_line_of(&self, proc: usize) -> Option<usize> {
        self.last_line_of.get(proc).copied().flatten()
    }

    /// Walks happens-before edges backwards from `line` and returns up to
    /// `cap` of the *most recent* ancestors, ascending by line (the target
    /// itself is not included). Recency is the right truncation for an
    /// explanation: the far past is reachable by explaining an ancestor.
    pub fn chain(&self, line: usize, cap: usize) -> Vec<&CausalNode> {
        let mut heap = std::collections::BinaryHeap::new();
        let mut picked = vec![line];
        if let Some(node) = self.node(line) {
            heap.extend(node.preds.iter().copied());
        }
        while let Some(next) = heap.pop() {
            if picked.contains(&next) {
                continue;
            }
            picked.push(next);
            if picked.len() > cap {
                break;
            }
            if let Some(node) = self.node(next) {
                heap.extend(node.preds.iter().copied());
            }
        }
        picked.sort_unstable();
        picked.pop(); // the target itself (the largest line)
        picked.iter().filter_map(|&l| self.node(l)).collect()
    }

    /// Records one event. `cross` is the cross-process predecessor line
    /// (matched send, open diffusion start), resolved by the checker from
    /// state the index cannot see.
    fn record(&mut self, line: usize, ev: &Event, cross: Option<usize>) {
        let mut preds = Vec::with_capacity(2);
        if let Some(c) = cross {
            preds.push(c);
        }
        // Program-order edge, then advance the actor's last-line cursor.
        fn po(last: &mut Vec<Option<usize>>, line: usize, p: usize, preds: &mut Vec<usize>) {
            if let Some(prev) = last.get(p).copied().flatten() {
                preds.push(prev);
            }
            *grow(last, p) = Some(line);
        }
        match ev {
            Event::MsgSent { from, .. } => po(&mut self.last_line_of, line, *from, &mut preds),
            Event::MsgDelivered { to, .. } => po(&mut self.last_line_of, line, *to, &mut preds),
            Event::MsgDropped { from, reason, .. } => {
                // A loss is the sender acting; a crash-drop happens at the
                // (dead) recipient and advances no one's program order.
                if *reason == DropReason::Lost {
                    po(&mut self.last_line_of, line, *from, &mut preds);
                }
            }
            Event::JobArrived { seq, .. } => {
                *grow(&mut self.arrival, *seq as usize) = Some(line);
            }
            Event::JobServed { seq, vehicle, .. } => {
                if let Some(a) = self.arrival.get(*seq as usize).copied().flatten() {
                    preds.push(a);
                }
                *grow(&mut self.serve, *seq as usize) = Some(line);
                po(&mut self.last_line_of, line, *vehicle, &mut preds);
            }
            Event::DiffusionStarted { initiator, .. } => {
                po(&mut self.last_line_of, line, *initiator, &mut preds);
            }
            Event::DiffusionCompleted {
                initiator, found, ..
            } => {
                if *found {
                    self.found_completions.push(line);
                }
                po(&mut self.last_line_of, line, *initiator, &mut preds);
            }
            Event::ReplacementCycle { vehicle, .. } => {
                if let Some(&c) = self.found_completions.get(self.cycles) {
                    preds.push(c);
                }
                self.cycles += 1;
                po(&mut self.last_line_of, line, *vehicle, &mut preds);
            }
            Event::HeartbeatMissed { watcher, peer, .. } => {
                // The peer's silence is what the watcher observed: its last
                // act is a read-only predecessor (no cursor advance).
                if let Some(prev) = self.last_line_of.get(*peer).copied().flatten() {
                    preds.push(prev);
                }
                po(&mut self.last_line_of, line, *watcher, &mut preds);
            }
            Event::ProcessCrashed { proc, .. } => {
                po(&mut self.last_line_of, line, *proc, &mut preds);
            }
            Event::FleetProvisioned { .. }
            | Event::PhaseSpan { .. }
            | Event::RoundProfile { .. } => {}
        }
        preds.sort_unstable();
        preds.dedup();
        *grow(&mut self.nodes, line) = Some(CausalNode {
            line,
            kind: ev.kind(),
            json: ev.to_json(),
            preds,
            actor: None,
        });
    }

    fn set_actor(&mut self, line: usize, actor: usize, lamport: u64) {
        if let Some(Some(node)) = self.nodes.get_mut(line) {
            node.actor = Some((actor, lamport));
        }
    }
}

/// A cheap multiplicative hasher for the packed `(from, to)` channel keys.
/// The checker runs inline with the simulator under `simulate --check`, so
/// the default SipHash would dominate its cost.
#[derive(Debug, Default, Clone)]
struct ChannelHasher(u64);

impl Hasher for ChannelHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn write_u64(&mut self, n: u64) {
        // SplitMix64-style finalizer: enough avalanche for dense ids.
        let mut x = self.0 ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        self.0 = x ^ (x >> 27);
    }
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// Both directions of one process pair behind a single map probe — message
/// events dominate traces, so every probe counts under `simulate --check`,
/// and a reply delivered on one direction must be compared against the
/// queries delivered on the other.
#[derive(Debug, Default, Clone)]
struct PairState {
    /// FIFO ledger of sends awaiting delivery or crash-drop, per direction.
    queue: [VecDeque<SendRecord>; 2],
    /// Query deliveries observed, per direction.
    queries: [u64; 2],
    /// Reply deliveries observed, per direction.
    replies: [u64; 2],
}

type ChannelMap = HashMap<u64, PairState, BuildHasherDefault<ChannelHasher>>;

/// Packs an unordered process pair into one map key plus the direction
/// index of `from -> to` within it.
fn pair_key(from: usize, to: usize) -> (u64, usize) {
    let (lo, hi, dir) = if from <= to {
        (from, to, 0)
    } else {
        (to, from, 1)
    };
    (((lo as u64) << 32) | hi as u64, dir)
}

/// Grows `v` with defaults so index `i` exists, and returns `&mut v[i]`.
/// Process ids and job sequence numbers are dense, so flat vectors beat
/// maps for all per-process state.
fn grow<T: Clone + Default>(v: &mut Vec<T>, i: usize) -> &mut T {
    if v.len() <= i {
        v.resize(i + 1, T::default());
    }
    &mut v[i]
}

/// An in-flight message ledger entry: what we knew at send time.
#[derive(Debug, Clone, Copy)]
struct SendRecord {
    t: u64,
    lamport: u64,
    line: usize,
}

/// One open diffusing computation at its initiator.
#[derive(Debug, Clone, Copy)]
struct OpenComputation {
    generation: u64,
    /// Queries sent by the initiator minus reply signals delivered to it.
    deficit: i64,
    started_line: usize,
}

/// Streaming trace validator; see the [module docs](self) for the
/// invariant catalog.
#[derive(Debug, Default)]
pub struct TraceChecker {
    line: usize,
    events: u64,
    violations: Vec<Violation>,
    /// Global simulation clock high-water mark (tick-round and wall-clock
    /// events are exempt).
    last_t: u64,
    /// Per-directed-channel FIFO ledger and query/reply delivery counters.
    channels: ChannelMap,
    /// Lamport clocks indexed by process id, derived (see module docs).
    lamport: Vec<u64>,
    /// Open computation per initiator, indexed by process id.
    open: Vec<Option<OpenComputation>>,
    open_count: usize,
    last_generation: Vec<Option<u64>>,
    /// High-water mark of concurrently open computations.
    max_open: usize,
    completions_found: u64,
    replacement_cycles: u64,
    crashed: Vec<bool>,
    any_crashed: bool,
    next_job_seq: u64,
    /// Tolerate forward gaps in arrival sequence numbers (shard-local
    /// streams see a strictly increasing but non-contiguous slice of the
    /// globally pre-assigned numbers).
    seq_gaps_ok: bool,
    arrived: Vec<bool>,
    served: Vec<bool>,
    energy: Vec<u64>,
    capacity: Option<u64>,
    vehicles: Option<u64>,
    saw_kinds: bool,
    saw_loss: bool,
    /// Last `round_profile` round seen per worker id (a map, not a grown
    /// vector: worker ids come straight off the wire and a corrupt sample
    /// must not drive an allocation).
    profile_last_round: std::collections::BTreeMap<u64, u64>,
    /// Happens-before graph, recorded only when
    /// [`TraceChecker::record_causality`] was called (O(trace) memory).
    causal: Option<CausalIndex>,
}

impl TraceChecker {
    /// Creates a checker with no events observed.
    pub fn new() -> Self {
        TraceChecker::default()
    }

    /// Provides the battery capacity `W` for the energy monitor when the
    /// trace predates the `fleet_provisioned` event (a later event wins).
    pub fn set_capacity(&mut self, capacity: u64) {
        self.capacity = Some(capacity);
    }

    /// Relaxes the job ledger to accept forward gaps in arrival sequence
    /// numbers, keeping every other ledger check (monotone arrivals,
    /// serve-after-arrive, no double serving).
    ///
    /// The sharded engine pre-assigns global sequence numbers across all
    /// shards, so each shard-local stream sees a strictly increasing but
    /// non-contiguous slice of them; contiguity of the full sequence is
    /// re-established (and checked) at the merge.
    pub fn allow_seq_gaps(&mut self) {
        self.seq_gaps_ok = true;
    }

    /// Turns on the causal index: every subsequent event is recorded as a
    /// [`CausalNode`], and violations gain their [`Violation::chain`].
    /// Costs O(trace) memory — meant for offline forensics, not the
    /// online [`CheckSink`].
    pub fn record_causality(&mut self) {
        if self.causal.is_none() {
            self.causal = Some(CausalIndex::default());
        }
    }

    /// The recorded causal index, when [`TraceChecker::record_causality`]
    /// is on.
    pub fn causal_index(&self) -> Option<&CausalIndex> {
        self.causal.as_ref()
    }

    /// Consumes the checker, yielding the causal index (if recorded).
    pub fn into_causal_index(self) -> Option<CausalIndex> {
        self.causal
    }

    /// Events observed so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Violations found so far (finish checks only appear after
    /// [`TraceChecker::finish`]).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Whether no violation has been found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The current Lamport clock of `proc` (0 if it never acted).
    pub fn lamport(&self, proc: usize) -> u64 {
        self.lamport.get(proc).copied().unwrap_or(0)
    }

    /// Names of the monitors that could actually run on what was seen so
    /// far (the kind-dependent ones need annotated messages, the capacity
    /// one needs `W`).
    pub fn active_invariants(&self) -> Vec<&'static str> {
        INVARIANTS
            .iter()
            .copied()
            .filter(|inv| match *inv {
                "ds-deficit" => self.saw_kinds,
                "capacity" => self.capacity.is_some(),
                _ => true,
            })
            .collect()
    }

    fn report(&mut self, invariant: &'static str, line: usize, detail: String) {
        // The chain is attached lazily (in `finish`): at this point the
        // offending event's own node may not be recorded yet.
        self.violations.push(Violation {
            invariant,
            line,
            detail,
            chain: Vec::new(),
        });
    }

    /// The mutable pair state covering `from -> to` (created on first
    /// touch) and the direction index of that channel within it.
    #[inline]
    fn channel(&mut self, from: usize, to: usize) -> (&mut PairState, usize) {
        let (key, dir) = pair_key(from, to);
        (self.channels.entry(key).or_default(), dir)
    }

    fn tick_lamport(&mut self, proc: usize) -> u64 {
        let c = grow(&mut self.lamport, proc);
        *c += 1;
        *c
    }

    fn is_crashed(&self, proc: usize) -> bool {
        self.crashed.get(proc).copied().unwrap_or(false)
    }

    /// Observes the next event, auto-numbering lines from 1 (online mode).
    /// Returns the acting process and its Lamport clock after the event,
    /// when the event is attributable to one process.
    #[inline]
    pub fn observe(&mut self, ev: &Event) -> Option<(usize, u64)> {
        let line = self.line + 1;
        self.observe_at(line, ev)
    }

    /// Observes one event as trace line `line` (1-based, must not
    /// decrease). Returns `(actor, lamport clock after the event)` for
    /// events attributable to one process.
    pub fn observe_at(&mut self, line: usize, ev: &Event) -> Option<(usize, u64)> {
        self.line = line;
        self.events += 1;
        self.check_crash_silence(line, ev);
        self.causal_observe(line, ev);
        let acted = match ev {
            Event::MsgSent { t, from, to, kind } => {
                self.clock(line, *t);
                if kind.is_some() {
                    self.saw_kinds = true;
                }
                let lamport = self.tick_lamport(*from);
                let (pair, dir) = self.channel(*from, *to);
                pair.queue[dir].push_back(SendRecord {
                    t: *t,
                    lamport,
                    line,
                });
                if *kind == Some(MsgKind::Query) && self.open_count > 0 {
                    if let Some(Some(open)) = self.open.get_mut(*from) {
                        open.deficit += 1;
                    }
                }
                Some((*from, lamport))
            }
            Event::MsgDelivered {
                t,
                from,
                to,
                delay,
                kind,
            } => {
                self.clock(line, *t);
                if kind.is_some() {
                    self.saw_kinds = true;
                }
                let (sent, replies, queries) = {
                    let (pair, dir) = self.channel(*from, *to);
                    let sent = pair.queue[dir].pop_front();
                    let (replies, queries) = match kind {
                        Some(MsgKind::Query) => {
                            pair.queries[dir] += 1;
                            (0, 0)
                        }
                        Some(MsgKind::Reply) => {
                            pair.replies[dir] += 1;
                            // The queries this reply answers flowed the
                            // other way on the same pair.
                            (pair.replies[dir], pair.queries[dir ^ 1])
                        }
                        _ => (0, 0),
                    };
                    (sent, replies, queries)
                };
                let lamport = match sent {
                    Some(rec) => {
                        if rec.t + *delay != *t {
                            self.report(
                                "channel-fifo",
                                line,
                                format!(
                                    "delivery {from}->{to} at t={t} claims delay {delay} but \
                                     matches the send at t={} (line {}): FIFO order broken",
                                    rec.t, rec.line
                                ),
                            );
                        }
                        let c = grow(&mut self.lamport, *to);
                        *c = (*c).max(rec.lamport) + 1;
                        *c
                    }
                    None => {
                        self.report(
                            "channel-fifo",
                            line,
                            format!("delivery {from}->{to} at t={t} has no matching send"),
                        );
                        self.tick_lamport(*to)
                    }
                };
                if *kind == Some(MsgKind::Reply) {
                    if replies > queries {
                        self.report(
                            "channel-fifo",
                            line,
                            format!(
                                "reply {from}->{to} outnumbers queries {to}->{from} \
                                 ({replies} replies vs {queries} queries)"
                            ),
                        );
                    }
                    if let Some(Some(open)) = self.open.get_mut(*to) {
                        open.deficit -= 1;
                    }
                }
                Some((*to, lamport))
            }
            Event::MsgDropped {
                t,
                from,
                to,
                reason,
                ..
            } => {
                self.clock(line, *t);
                match reason {
                    // Lost in transit is decided at send time: no msg_sent was
                    // emitted, so there is nothing to match — but the sender did
                    // act, so its clock ticks.
                    DropReason::Lost => {
                        self.saw_loss = true;
                        let lamport = self.tick_lamport(*from);
                        Some((*from, lamport))
                    }
                    // Dropped at the crashed recipient's door: consumes the
                    // oldest in-flight send on the channel.
                    DropReason::RecipientCrashed => {
                        let (pair, dir) = self.channel(*from, *to);
                        if pair.queue[dir].pop_front().is_none() {
                            self.report(
                                "channel-fifo",
                                line,
                                format!("crash-drop {from}->{to} has no matching send"),
                            );
                        }
                        None
                    }
                }
            }
            Event::JobArrived { t, seq, .. } => {
                self.clock(line, *t);
                if self.seq_gaps_ok {
                    if *seq < self.next_job_seq {
                        self.report(
                            "job-ledger",
                            line,
                            format!(
                                "job seq {seq} arrived out of order (next must be >= {})",
                                self.next_job_seq
                            ),
                        );
                    }
                } else if *seq != self.next_job_seq {
                    self.report(
                        "job-ledger",
                        line,
                        format!("job seq {seq} arrived, expected seq {}", self.next_job_seq),
                    );
                }
                *grow(&mut self.arrived, *seq as usize) = true;
                self.next_job_seq = self.next_job_seq.max(*seq + 1);
                None
            }
            Event::JobServed {
                t,
                seq,
                vehicle,
                cost,
            } => {
                self.clock(line, *t);
                if !self.arrived.get(*seq as usize).copied().unwrap_or(false) {
                    self.report(
                        "job-ledger",
                        line,
                        format!("job seq {seq} served but never arrived"),
                    );
                } else {
                    let done = std::mem::replace(grow(&mut self.served, *seq as usize), true);
                    if done {
                        self.report("job-ledger", line, format!("job seq {seq} served twice"));
                    }
                }
                self.charge(line, *vehicle, *cost, "service");
                let lamport = self.tick_lamport(*vehicle);
                Some((*vehicle, lamport))
            }
            Event::DiffusionStarted {
                t,
                initiator,
                generation,
            } => {
                self.clock(line, *t);
                if let Some(Some(open)) = self.open.get(*initiator) {
                    self.report(
                        "ds-deficit",
                        line,
                        format!(
                            "initiator {initiator} started generation {generation} while \
                             generation {} (line {}) is still open",
                            open.generation, open.started_line
                        ),
                    );
                }
                if let Some(Some(last)) = self.last_generation.get(*initiator) {
                    if *generation <= *last {
                        let last = *last;
                        self.report(
                            "ds-deficit",
                            line,
                            format!(
                                "initiator {initiator} generation {generation} not above \
                                 previous generation {last}"
                            ),
                        );
                    }
                }
                *grow(&mut self.last_generation, *initiator) = Some(*generation);
                let slot = grow(&mut self.open, *initiator);
                if slot.is_none() {
                    self.open_count += 1;
                }
                *slot = Some(OpenComputation {
                    generation: *generation,
                    deficit: 0,
                    started_line: line,
                });
                self.max_open = self.max_open.max(self.open_count);
                let lamport = self.tick_lamport(*initiator);
                Some((*initiator, lamport))
            }
            Event::DiffusionCompleted {
                t,
                initiator,
                generation,
                found,
            } => {
                self.clock(line, *t);
                match grow(&mut self.open, *initiator).take() {
                    Some(open) if open.generation == *generation => {
                        self.open_count -= 1;
                        if self.saw_kinds && open.deficit != 0 {
                            self.report(
                                "ds-deficit",
                                line,
                                format!(
                                    "initiator {initiator} completed generation {generation} \
                                     with deficit {} (queries sent minus reply signals \
                                     returned must be 0 at termination)",
                                    open.deficit
                                ),
                            );
                        }
                    }
                    Some(open) => {
                        self.open_count -= 1;
                        self.report(
                            "ds-deficit",
                            line,
                            format!(
                                "initiator {initiator} completed generation {generation} but \
                                 generation {} is the one open",
                                open.generation
                            ),
                        );
                    }
                    None => {
                        self.report(
                            "ds-deficit",
                            line,
                            format!(
                                "initiator {initiator} completed generation {generation} \
                                 without a matching start"
                            ),
                        );
                    }
                }
                if *found {
                    self.completions_found += 1;
                }
                let lamport = self.tick_lamport(*initiator);
                Some((*initiator, lamport))
            }
            Event::ReplacementCycle {
                t, vehicle, dist, ..
            } => {
                self.clock(line, *t);
                self.replacement_cycles += 1;
                if self.replacement_cycles > self.completions_found {
                    self.report(
                        "replacement-liveness",
                        line,
                        format!(
                            "vehicle {vehicle} arrived as replacement #{} but only {} \
                             successful searches completed",
                            self.replacement_cycles, self.completions_found
                        ),
                    );
                }
                self.charge(line, *vehicle, *dist, "relocation");
                let lamport = self.tick_lamport(*vehicle);
                Some((*vehicle, lamport))
            }
            Event::HeartbeatMissed { watcher, .. } => {
                let lamport = self.tick_lamport(*watcher);
                Some((*watcher, lamport))
            }
            Event::FleetProvisioned {
                t,
                vehicles,
                capacity,
            } => {
                self.clock(line, *t);
                self.vehicles = Some(*vehicles);
                self.capacity = Some(*capacity);
                None
            }
            Event::ProcessCrashed { t, proc } => {
                self.clock(line, *t);
                *grow(&mut self.crashed, *proc) = true;
                self.any_crashed = true;
                Some((*proc, self.lamport(*proc)))
            }
            Event::PhaseSpan {
                name,
                start_ns,
                end_ns,
            } => {
                if end_ns < start_ns {
                    self.report(
                        "span",
                        line,
                        format!("span {name:?} ends at {end_ns} before it starts at {start_ns}"),
                    );
                }
                None
            }
            Event::RoundProfile {
                round,
                worker,
                workers,
                busy_ns,
                barrier_wait_ns,
                merge_ns,
                sink_ns,
                ..
            } => {
                for (name, v) in [
                    ("busy_ns", *busy_ns),
                    ("barrier_wait_ns", *barrier_wait_ns),
                    ("merge_ns", *merge_ns),
                    ("sink_ns", *sink_ns),
                ] {
                    if v < 0 {
                        self.report(
                            "profile",
                            line,
                            format!("negative {name} ({v}) in round {round} worker {worker}"),
                        );
                    }
                }
                if *workers == 0 {
                    self.report(
                        "profile",
                        line,
                        format!("round {round} sample claims a zero-worker pool"),
                    );
                } else if *worker >= *workers {
                    self.report(
                        "profile",
                        line,
                        format!(
                            "worker {worker} out of range for a pool of {workers} \
                             in round {round}"
                        ),
                    );
                }
                if let Some(&prev) = self.profile_last_round.get(worker) {
                    if *round <= prev {
                        self.report(
                            "profile",
                            line,
                            format!(
                                "worker {worker} round is not strictly increasing: \
                                 {round} after {prev}"
                            ),
                        );
                    }
                }
                self.profile_last_round.insert(*worker, *round);
                None
            }
        };
        if let (Some(ix), Some((actor, lamport))) = (self.causal.as_mut(), acted) {
            ix.set_actor(line, actor, lamport);
        }
        acted
    }

    /// Records `ev` into the causal index (when recording), resolving the
    /// cross-process predecessor edge from checker state *before* the
    /// monitors below consume it (the matched send is popped, the open
    /// diffusion slot is taken).
    fn causal_observe(&mut self, line: usize, ev: &Event) {
        if self.causal.is_none() {
            return;
        }
        let cross = match ev {
            Event::MsgDelivered { from, to, .. }
            | Event::MsgDropped {
                from,
                to,
                reason: DropReason::RecipientCrashed,
                ..
            } => {
                let (pair, dir) = self.channel(*from, *to);
                pair.queue[dir].front().map(|r| r.line)
            }
            Event::DiffusionCompleted { initiator, .. } => self
                .open
                .get(*initiator)
                .and_then(|slot| slot.as_ref())
                .map(|open| open.started_line),
            _ => None,
        };
        self.causal
            .as_mut()
            .expect("checked above")
            .record(line, ev, cross);
    }

    fn charge(&mut self, line: usize, vehicle: usize, amount: u64, what: &str) {
        if let Some(limit) = self.vehicles {
            if vehicle as u64 >= limit {
                self.report(
                    "capacity",
                    line,
                    format!("vehicle {vehicle} outside the provisioned fleet of {limit}"),
                );
            }
        }
        let used = grow(&mut self.energy, vehicle);
        *used += amount;
        let used = *used;
        if let Some(w) = self.capacity {
            if used > w {
                self.report(
                    "capacity",
                    line,
                    format!(
                        "vehicle {vehicle} spent {used} > capacity {w} after {what} of {amount}"
                    ),
                );
            }
        }
    }

    /// Global simulation-time monotonicity, called from every event arm
    /// that carries a simulation timestamp. Heartbeat misses are stamped
    /// in watcher-local tick rounds and spans in wall-clock nanoseconds,
    /// so both are exempt (their arms never call this).
    #[inline]
    fn clock(&mut self, line: usize, t: u64) {
        if t < self.last_t {
            self.report(
                "clock",
                line,
                format!(
                    "simulation time ran backwards: t={t} after t={}",
                    self.last_t
                ),
            );
        }
        self.last_t = self.last_t.max(t);
    }

    /// A crashed process must neither act nor be delivered to.
    fn check_crash_silence(&mut self, line: usize, ev: &Event) {
        if !self.any_crashed {
            return;
        }
        let offender: Option<(usize, &str)> = match ev {
            Event::MsgSent { from, .. } if self.is_crashed(*from) => {
                Some((*from, "sent a message"))
            }
            Event::MsgDelivered { to, .. } if self.is_crashed(*to) => {
                Some((*to, "was delivered a message"))
            }
            Event::JobServed { vehicle, .. } if self.is_crashed(*vehicle) => {
                Some((*vehicle, "served a job"))
            }
            Event::DiffusionStarted { initiator, .. } if self.is_crashed(*initiator) => {
                Some((*initiator, "started a diffusion"))
            }
            Event::DiffusionCompleted { initiator, .. } if self.is_crashed(*initiator) => {
                Some((*initiator, "completed a diffusion"))
            }
            Event::ReplacementCycle { vehicle, .. } if self.is_crashed(*vehicle) => {
                Some((*vehicle, "arrived as a replacement"))
            }
            Event::HeartbeatMissed { watcher, .. } if self.is_crashed(*watcher) => {
                Some((*watcher, "acted as a watcher"))
            }
            _ => None,
        };
        if let Some((proc, did)) = offender {
            self.report(
                "crash-silence",
                line,
                format!("crashed process {proc} {did}"),
            );
        }
    }

    /// End-of-trace checks: Dijkstra–Scholten termination and replacement
    /// liveness. Call exactly once, after the last event.
    pub fn finish(&mut self) {
        let line = self.line;
        let open: Vec<(usize, OpenComputation)> = self
            .open
            .iter_mut()
            .enumerate()
            .filter_map(|(i, slot)| slot.take().map(|c| (i, c)))
            .collect();
        self.open_count = 0;
        for (initiator, comp) in open {
            self.report(
                "ds-deficit",
                comp.started_line,
                format!(
                    "computation of initiator {initiator} generation {} never terminated \
                     (deficit {} at end of trace)",
                    comp.generation, comp.deficit
                ),
            );
        }
        // In a clean trace — nothing crashed, nothing lost, searches never
        // overlapped — every successful search's move order is delivered, so
        // a summoned vehicle that never arrives is a liveness bug. Crashes,
        // losses, or concurrent searches (which can claim the same idle
        // vehicle twice) legitimately strand a search, so only the
        // arrival-without-search direction is checked there (streamed).
        let clean = !self.any_crashed && !self.saw_loss && self.max_open <= 1;
        if clean && self.replacement_cycles < self.completions_found {
            let (cycles, found) = (self.replacement_cycles, self.completions_found);
            self.report(
                "replacement-liveness",
                line,
                format!(
                    "{found} successful searches but only {cycles} replacement arrivals \
                     in a loss-free, crash-free trace"
                ),
            );
        }
        // With the causal index live, attach to every violation the chain
        // of events leading to the offending one (done here, not at report
        // time: the offender's own node is recorded after the monitors
        // run, and finish-time violations point at earlier lines anyway).
        if let Some(ix) = &self.causal {
            const CHAIN_CAP: usize = 8;
            for v in &mut self.violations {
                if v.chain.is_empty() {
                    v.chain = ix
                        .chain(v.line, CHAIN_CAP)
                        .iter()
                        .map(|n| format!("line {}: {}", n.line, n.json))
                        .collect();
                }
            }
        }
    }
}

/// A [`Sink`] wrapper that validates every event on its way to `inner`.
///
/// ```
/// use cmvrp_obs::{CheckSink, Event, NullSink, Sink};
///
/// let mut sink = CheckSink::new(NullSink);
/// sink.record(&Event::JobArrived { t: 1, seq: 0, pos: vec![0, 0] });
/// sink.record(&Event::JobServed { t: 1, seq: 0, vehicle: 3, cost: 1 });
/// let (mut checker, _inner) = sink.into_parts();
/// checker.finish();
/// assert!(checker.is_clean());
/// ```
#[derive(Debug, Default)]
pub struct CheckSink<S: Sink> {
    inner: S,
    checker: TraceChecker,
}

impl<S: Sink> CheckSink<S> {
    /// Wraps `inner`, validating everything recorded through it.
    pub fn new(inner: S) -> Self {
        CheckSink {
            inner,
            checker: TraceChecker::new(),
        }
    }

    /// The checker's current state.
    pub fn checker(&self) -> &TraceChecker {
        &self.checker
    }

    /// Mutable access to the checker — for configuring it before a run
    /// ([`TraceChecker::set_capacity`], [`TraceChecker::allow_seq_gaps`])
    /// or finishing it in place.
    pub fn checker_mut(&mut self) -> &mut TraceChecker {
        &mut self.checker
    }

    /// Mutable access to the wrapped sink (e.g. to drain a buffering
    /// inner sink mid-run without disturbing the checker).
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Splits into the checker and the wrapped sink. Call
    /// [`TraceChecker::finish`] on the checker to run end-of-trace checks.
    pub fn into_parts(self) -> (TraceChecker, S) {
        (self.checker, self.inner)
    }
}

impl<S: Sink> Sink for CheckSink<S> {
    fn record(&mut self, event: &Event) {
        self.checker.observe(event);
        self.inner.record(event);
    }

    fn flush_events(&mut self) {
        self.inner.flush_events();
    }

    // Enabled even over a NullSink: the point is the checking.
    fn is_enabled(&self) -> bool {
        true
    }
}

impl<S: Sink> StaticSink for CheckSink<S> {}

/// Merge-time cross-shard monitors.
///
/// The sharded engine runs a full [`TraceChecker`] inside every shard (via
/// a per-shard [`CheckSink`]), which covers the shard-local invariants:
/// energy, channel FIFO/causality, DS deficits, crash silence, spans, the
/// per-shard job ledger, and the per-shard clock. Two properties are only
/// visible on the canonical *merged* stream, and this checker validates
/// exactly those as the merge streams by:
///
/// * **`clock`** — global simulation time never runs backwards across
///   shards (heartbeat and span events are exempt, as in the full
///   checker);
/// * **`job-ledger`** — the globally pre-assigned arrival sequence numbers
///   come out of the merge contiguous: 0, 1, 2, … (each shard alone only
///   certifies its increasing slice).
///
/// Violation lines are 1-based ordinals in the merged stream, so they
/// agree with `trace check` line numbers on the written trace.
#[derive(Debug, Default)]
pub struct MergeChecker {
    events: u64,
    last_t: u64,
    next_job_seq: u64,
    violations: Vec<Violation>,
}

impl MergeChecker {
    /// Creates a checker with no events observed.
    pub fn new() -> Self {
        MergeChecker::default()
    }

    /// Seeds the checker to continue a stream that resumed from a
    /// checkpoint: `events` merged events were already emitted (keeps
    /// violation line numbers global), simulation time had reached
    /// `last_t`, and `next_job_seq` arrivals were already released. The
    /// resumed tail is then validated to *stitch* — its first event may
    /// not run time backwards nor skip or repeat an arrival sequence
    /// number — which is exactly the cross-run half of the
    /// resume-equivalence invariant.
    pub fn resume_at(&mut self, events: u64, last_t: u64, next_job_seq: u64) {
        assert!(
            self.events == 0 && self.violations.is_empty(),
            "resume_at on a checker that already observed events"
        );
        self.events = events;
        self.last_t = last_t;
        self.next_job_seq = next_job_seq;
    }

    /// Observes the next event of the merged stream.
    pub fn observe(&mut self, ev: &Event) {
        self.events += 1;
        let line = self.events as usize;
        if let Some(t) = ev.time() {
            if t < self.last_t {
                self.violations.push(Violation {
                    invariant: "clock",
                    line,
                    detail: format!(
                        "merged simulation time ran backwards: t={t} after t={}",
                        self.last_t
                    ),
                    chain: Vec::new(),
                });
            }
            self.last_t = self.last_t.max(t);
        }
        if let Event::JobArrived { seq, .. } = ev {
            if *seq != self.next_job_seq {
                self.violations.push(Violation {
                    invariant: "job-ledger",
                    line,
                    detail: format!(
                        "merged stream: job seq {seq} arrived, expected seq {}",
                        self.next_job_seq
                    ),
                    chain: Vec::new(),
                });
            }
            self.next_job_seq = self.next_job_seq.max(*seq + 1);
        }
    }

    /// Events observed so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Violations found so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Whether no violation has been found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Consumes the checker, yielding its violations.
    pub fn into_violations(self) -> Vec<Violation> {
        self.violations
    }
}

/// Outcome of an offline [`check_lines`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckReport {
    /// Events checked (blank lines excluded).
    pub events: u64,
    /// All violations, including end-of-trace checks.
    pub violations: Vec<Violation>,
    /// The monitors that could run on this trace.
    pub active: Vec<&'static str>,
}

impl CheckReport {
    /// Whether the trace satisfied every invariant.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Checks a whole JSONL trace; blank lines are skipped but still counted
/// for line numbering. `capacity` seeds the energy monitor for traces
/// without a `fleet_provisioned` event.
///
/// # Errors
///
/// Returns `(1-based line number, parse error)` for the first malformed
/// line — malformed input is a parse failure, not a violation.
pub fn check_lines<'a, I>(lines: I, capacity: Option<u64>) -> Result<CheckReport, (usize, String)>
where
    I: IntoIterator<Item = &'a str>,
{
    let mut checker = TraceChecker::new();
    // Offline checking is forensics: record the causal index so every
    // violation carries the chain of events that led to it.
    checker.record_causality();
    if let Some(w) = capacity {
        checker.set_capacity(w);
    }
    for item in crate::event::jsonl_events(lines) {
        let (line, _, ev) = item?;
        checker.observe_at(line, &ev);
    }
    checker.finish();
    let active = checker.active_invariants();
    Ok(CheckReport {
        events: checker.events(),
        violations: checker.violations().to_vec(),
        active,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sent(t: u64, from: usize, to: usize, kind: MsgKind) -> Event {
        Event::MsgSent {
            t,
            from,
            to,
            kind: Some(kind),
        }
    }

    fn delivered(t: u64, from: usize, to: usize, delay: u64, kind: MsgKind) -> Event {
        Event::MsgDelivered {
            t,
            from,
            to,
            delay,
            kind: Some(kind),
        }
    }

    /// A minimal legal trace: fleet of 3, one job served, one full
    /// replacement search (0 queries 1, 1 claims, reply returns, 1 is
    /// summoned and arrives).
    fn valid_trace() -> Vec<Event> {
        vec![
            Event::FleetProvisioned {
                t: 0,
                vehicles: 3,
                capacity: 10,
            },
            Event::JobArrived {
                t: 1,
                seq: 0,
                pos: vec![0, 0],
            },
            Event::JobServed {
                t: 1,
                seq: 0,
                vehicle: 0,
                cost: 2,
            },
            Event::DiffusionStarted {
                t: 1,
                initiator: 0,
                generation: 1,
            },
            sent(1, 0, 1, MsgKind::Query),
            delivered(3, 0, 1, 2, MsgKind::Query),
            sent(3, 1, 0, MsgKind::Reply),
            delivered(5, 1, 0, 2, MsgKind::Reply),
            Event::DiffusionCompleted {
                t: 5,
                initiator: 0,
                generation: 1,
                found: true,
            },
            sent(5, 0, 1, MsgKind::Move),
            delivered(6, 0, 1, 1, MsgKind::Move),
            Event::ReplacementCycle {
                t: 6,
                vehicle: 1,
                dest: vec![0, 0],
                dist: 2,
            },
        ]
    }

    fn check(events: &[Event]) -> CheckReport {
        let lines: Vec<String> = events.iter().map(Event::to_json).collect();
        check_lines(lines.iter().map(String::as_str), None).unwrap()
    }

    #[test]
    fn valid_trace_is_clean() {
        let report = check(&valid_trace());
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.events, 12);
        assert_eq!(report.active, INVARIANTS.to_vec());
    }

    #[test]
    fn online_check_sink_matches_offline() {
        let mut sink = CheckSink::new(crate::sink::NullSink);
        for ev in valid_trace() {
            sink.record(&ev);
        }
        let (mut checker, _) = sink.into_parts();
        checker.finish();
        assert!(checker.is_clean(), "{:?}", checker.violations());
        assert_eq!(checker.events(), 12);
    }

    #[test]
    fn lamport_clocks_respect_causality() {
        let mut checker = TraceChecker::new();
        let mut clock_at_send = 0;
        for ev in valid_trace() {
            let meta = checker.observe(&ev);
            if let Event::MsgSent { from: 0, .. } = ev {
                clock_at_send = meta.unwrap().1;
            }
            if let Event::MsgDelivered { to, .. } = ev {
                let (actor, clock) = meta.unwrap();
                assert_eq!(actor, to);
                assert!(clock > clock_at_send, "delivery must follow its send");
            }
        }
        assert!(checker.lamport(0) > 0);
        assert!(checker.lamport(2) == 0, "process 2 never acted");
    }

    #[test]
    fn clock_regression_caught() {
        let mut evs = valid_trace();
        if let Event::ReplacementCycle { t, .. } = &mut evs[11] {
            *t = 2; // before the completion at t=5
        }
        let report = check(&evs);
        assert!(report.violations.iter().any(|v| v.invariant == "clock"));
    }

    #[test]
    fn span_inversion_caught() {
        let report = check(&[Event::PhaseSpan {
            name: "x".into(),
            start_ns: 10,
            end_ns: 3,
        }]);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].invariant, "span");
        assert_eq!(report.violations[0].line, 1);
    }

    fn profile(round: u64, worker: u64, workers: u64, busy_ns: i64) -> Event {
        Event::RoundProfile {
            round,
            worker,
            workers,
            busy_ns,
            barrier_wait_ns: 0,
            merge_ns: 0,
            sink_ns: 0,
            events: 1,
            steals: 0,
        }
    }

    #[test]
    fn clean_profile_stream_accepted() {
        let report = check(&[
            profile(1, 0, 2, 10),
            profile(1, 1, 2, 12),
            profile(2, 0, 2, 9),
            profile(2, 1, 2, 11),
        ]);
        assert!(report.is_clean(), "{:?}", report.violations);
        assert!(report.active.contains(&"profile"));
    }

    #[test]
    fn negative_profile_duration_caught() {
        let report = check(&[profile(1, 0, 1, -7)]);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].invariant, "profile");
        assert_eq!(report.violations[0].line, 1);
    }

    #[test]
    fn profile_worker_out_of_range_caught() {
        let report = check(&[profile(1, 2, 2, 5)]);
        assert!(report.violations.iter().any(|v| v.invariant == "profile"));
        let report = check(&[profile(1, 0, 0, 5)]);
        assert!(report.violations.iter().any(|v| v.invariant == "profile"));
    }

    #[test]
    fn profile_round_regression_caught() {
        // Per-worker rounds must strictly increase; other workers'
        // interleaved samples must not trip it.
        let report = check(&[
            profile(2, 0, 2, 5),
            profile(2, 1, 2, 5),
            profile(2, 0, 2, 5),
        ]);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].invariant, "profile");
        assert_eq!(report.violations[0].line, 3);
    }

    #[test]
    fn capacity_from_explicit_override() {
        let events = [Event::JobServed {
            t: 1,
            seq: 0,
            vehicle: 0,
            cost: 50,
        }];
        let lines: Vec<String> = events.iter().map(Event::to_json).collect();
        // Without W the monitor is idle; seq-never-arrived still fires.
        let lax = check_lines(lines.iter().map(String::as_str), None).unwrap();
        assert!(lax.violations.iter().all(|v| v.invariant != "capacity"));
        assert!(!lax.active.contains(&"capacity"));
        let strict = check_lines(lines.iter().map(String::as_str), Some(10)).unwrap();
        assert!(strict.violations.iter().any(|v| v.invariant == "capacity"));
    }

    #[test]
    fn kindless_traces_skip_deficit_monitor() {
        // Same trace with the kind annotations stripped: the deficit
        // monitor must stay idle rather than misfire.
        let evs: Vec<Event> = valid_trace()
            .into_iter()
            .map(|ev| match ev {
                Event::MsgSent { t, from, to, .. } => Event::MsgSent {
                    t,
                    from,
                    to,
                    kind: None,
                },
                Event::MsgDelivered {
                    t, from, to, delay, ..
                } => Event::MsgDelivered {
                    t,
                    from,
                    to,
                    delay,
                    kind: None,
                },
                other => other,
            })
            .collect();
        let report = check(&evs);
        assert!(report.is_clean(), "{:?}", report.violations);
        assert!(!report.active.contains(&"ds-deficit"));
    }

    fn arrived(t: u64, seq: u64) -> Event {
        Event::JobArrived {
            t,
            seq,
            pos: vec![0, 0],
        }
    }

    #[test]
    fn seq_gap_mode_accepts_shard_slices_but_keeps_order_and_ledger() {
        // A shard-local stream: global seqs 1, 4, 9 with serves — legal
        // once gaps are allowed, illegal for the default checker.
        let slice = [
            arrived(1, 1),
            Event::JobServed {
                t: 1,
                seq: 1,
                vehicle: 0,
                cost: 1,
            },
            arrived(2, 4),
            arrived(3, 9),
        ];
        let mut strict = TraceChecker::new();
        let mut lax = TraceChecker::new();
        lax.allow_seq_gaps();
        for ev in &slice {
            strict.observe(ev);
            lax.observe(ev);
        }
        assert!(!strict.is_clean());
        assert!(lax.is_clean(), "{:?}", lax.violations());

        // Out-of-order arrivals and phantom serves still fire in gap mode.
        let mut lax = TraceChecker::new();
        lax.allow_seq_gaps();
        lax.observe(&arrived(1, 5));
        lax.observe(&arrived(2, 3));
        assert_eq!(lax.violations().len(), 1);
        assert_eq!(lax.violations()[0].invariant, "job-ledger");
        let mut lax = TraceChecker::new();
        lax.allow_seq_gaps();
        lax.observe(&arrived(1, 5));
        lax.observe(&Event::JobServed {
            t: 2,
            seq: 3,
            vehicle: 0,
            cost: 1,
        });
        assert!(lax
            .violations()
            .iter()
            .any(|v| v.invariant == "job-ledger" && v.detail.contains("never arrived")));
    }

    #[test]
    fn serve_between_arrivals_checked_precisely() {
        // seq 1 arrived, seq 0 never did; serving seq 0 must fire even
        // though 0 < next_job_seq (the old high-water heuristic missed it).
        let mut checker = TraceChecker::new();
        checker.observe(&arrived(1, 1)); // itself an order violation (strict)
        checker.observe(&Event::JobServed {
            t: 2,
            seq: 0,
            vehicle: 0,
            cost: 1,
        });
        assert!(checker
            .violations()
            .iter()
            .any(|v| v.detail.contains("never arrived")));
    }

    /// Runs the valid trace through a causality-recording checker and
    /// returns the index.
    fn causal_index_of(events: &[Event]) -> CausalIndex {
        let mut checker = TraceChecker::new();
        checker.record_causality();
        for ev in events {
            checker.observe(ev);
        }
        checker.finish();
        checker.into_causal_index().unwrap()
    }

    #[test]
    fn causal_index_records_channel_and_ledger_edges() {
        let ix = causal_index_of(&valid_trace());
        // Serve of job 0 (line 3) hangs off its arrival (line 2).
        assert_eq!(ix.serve_line(0), Some(3));
        assert_eq!(ix.arrival_line(0), Some(2));
        assert_eq!(ix.node(3).unwrap().preds, vec![2]);
        // Query delivery (line 6) hangs off its send (line 5).
        assert_eq!(ix.node(6).unwrap().preds, vec![5]);
        // Completion (line 9) hangs off its start (line 4) and the reply
        // delivery (line 8, the initiator's previous act).
        assert_eq!(ix.node(9).unwrap().preds, vec![4, 8]);
        // The replacement arrival (line 12) hangs off the successful
        // completion (line 9) and the move delivery (line 11).
        assert_eq!(ix.node(12).unwrap().preds, vec![9, 11]);
        // Actors carry Lamport clocks consistent with causality.
        let (actor, at_send) = ix.node(5).unwrap().actor.unwrap();
        assert_eq!(actor, 0);
        let (actor, at_delivery) = ix.node(6).unwrap().actor.unwrap();
        assert_eq!(actor, 1);
        assert!(at_delivery > at_send);
    }

    #[test]
    fn causal_chain_walks_back_through_the_diffusion() {
        let ix = causal_index_of(&valid_trace());
        let chain: Vec<usize> = ix.chain(12, 8).iter().map(|n| n.line).collect();
        // Most recent 8 ancestors of the replacement arrival, ascending:
        // the whole search — start, query send/delivery, reply
        // send/delivery, completion, move send/delivery.
        assert_eq!(chain, vec![4, 5, 6, 7, 8, 9, 10, 11]);
        // A tighter cap keeps the most recent ancestors.
        let short: Vec<usize> = ix.chain(12, 3).iter().map(|n| n.line).collect();
        assert_eq!(short, vec![9, 10, 11]);
    }

    #[test]
    fn violations_carry_their_causal_chain() {
        // Double-serve: the second serve (line 4) is the offender; its
        // chain must reach the arrival and the first serve.
        let events = [
            arrived(1, 0),
            Event::JobServed {
                t: 1,
                seq: 0,
                vehicle: 0,
                cost: 1,
            },
            arrived(2, 1),
            Event::JobServed {
                t: 2,
                seq: 0,
                vehicle: 0,
                cost: 1,
            },
        ];
        let report = check(&events);
        let v = report
            .violations
            .iter()
            .find(|v| v.detail.contains("served twice"))
            .unwrap();
        assert_eq!(v.line, 4);
        assert!(
            v.chain.iter().any(|c| c.starts_with("line 1:")),
            "chain should reach the arrival: {:?}",
            v.chain
        );
        assert!(
            v.chain.iter().any(|c| c.starts_with("line 2:")),
            "chain should reach the first serve: {:?}",
            v.chain
        );
        assert!(format!("{v}").contains("caused by:"));
    }

    #[test]
    fn merge_checker_guards_global_clock_and_seq_contiguity() {
        let mut mc = MergeChecker::new();
        mc.observe(&Event::FleetProvisioned {
            t: 0,
            vehicles: 4,
            capacity: 10,
        });
        mc.observe(&arrived(1, 0));
        mc.observe(&arrived(2, 1));
        assert!(mc.is_clean());
        assert_eq!(mc.events(), 3);

        // A gap in the merged seq order: shard checkers can't see it.
        let mut mc = MergeChecker::new();
        mc.observe(&arrived(1, 0));
        mc.observe(&arrived(2, 2));
        assert_eq!(mc.violations().len(), 1);
        assert_eq!(mc.violations()[0].invariant, "job-ledger");
        assert_eq!(mc.violations()[0].line, 2);

        // Cross-shard time regression.
        let mut mc = MergeChecker::new();
        mc.observe(&arrived(5, 0));
        mc.observe(&arrived(3, 1));
        assert!(mc.into_violations().iter().any(|v| v.invariant == "clock"));

        // Heartbeats are tick-round stamped: exempt from the merged clock.
        let mut mc = MergeChecker::new();
        mc.observe(&arrived(5, 0));
        mc.observe(&Event::HeartbeatMissed {
            t: 1,
            watcher: 0,
            peer: 1,
        });
        assert!(mc.is_clean());
    }

    #[test]
    fn merge_checker_resume_seeding_validates_stitching() {
        // A resumed tail continues cleanly when the seeds match...
        let mut mc = MergeChecker::new();
        mc.resume_at(10, 7, 3);
        mc.observe(&arrived(8, 3));
        assert!(mc.is_clean());
        assert_eq!(mc.events(), 11, "line numbers stay global");

        // ...but a repeated arrival or a clock regression at the seam is
        // caught, with the line number counted from the whole run.
        let mut mc = MergeChecker::new();
        mc.resume_at(10, 7, 3);
        mc.observe(&arrived(5, 2));
        let kinds: Vec<_> = mc.violations().iter().map(|v| v.invariant).collect();
        assert!(kinds.contains(&"clock"), "{kinds:?}");
        assert!(kinds.contains(&"job-ledger"), "{kinds:?}");
        assert_eq!(mc.violations()[0].line, 11);
    }

    #[test]
    #[should_panic(expected = "resume_at")]
    fn merge_checker_resume_after_observe_panics() {
        let mut mc = MergeChecker::new();
        mc.observe(&arrived(1, 0));
        mc.resume_at(10, 7, 3);
    }
}

#[cfg(test)]
mod profile {
    use super::*;

    // Poor-man's profiler: `cargo test -p cmvrp-obs --release -- --ignored
    // profile_variants --nocapture` prints per-variant observe() costs.
    #[test]
    #[ignore]
    fn profile_variants() {
        let n = 200_000usize;
        let mk = |f: &dyn Fn(u64) -> Event| (0..n as u64).map(f).collect::<Vec<_>>();
        let streams: Vec<(&str, Vec<Event>)> = vec![
            (
                "msg_sent",
                mk(&|i| Event::MsgSent {
                    t: i,
                    from: (i % 256) as usize,
                    to: ((i + 1) % 256) as usize,
                    kind: Some(MsgKind::Heartbeat),
                }),
            ),
            (
                "sent+delivered",
                (0..n as u64)
                    .flat_map(|i| {
                        let (from, to) = ((i % 256) as usize, ((i + 1) % 256) as usize);
                        [
                            Event::MsgSent {
                                t: 2 * i,
                                from,
                                to,
                                kind: Some(MsgKind::Query),
                            },
                            Event::MsgDelivered {
                                t: 2 * i + 1,
                                from,
                                to,
                                delay: 1,
                                kind: Some(MsgKind::Query),
                            },
                        ]
                    })
                    .collect(),
            ),
            (
                "job_arrived",
                mk(&|i| Event::JobArrived {
                    t: i,
                    seq: i,
                    pos: vec![0, 0],
                }),
            ),
        ];
        for (name, evs) in &streams {
            let t = std::time::Instant::now();
            let mut c = TraceChecker::new();
            for ev in evs {
                std::hint::black_box(c.observe(ev));
            }
            let el = t.elapsed().as_nanos() as f64 / evs.len() as f64;
            println!("{name}: {el:.1} ns/event ({} events)", evs.len());
            assert!(
                c.is_clean(),
                "{:?}",
                &c.violations()[..1.min(c.violations().len())]
            );
        }
    }
}
