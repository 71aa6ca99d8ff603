//! Typed trace events, the one list of their fields, and their JSONL form.
//!
//! `Event::walk` hands a field writer the event's kind and then every
//! field with its JSONL key, in wire order; `Event::read` builds the event
//! back from a field reader in the same order. Those two functions are
//! the schema. Each encoding implements the crate-private writer/reader
//! pair once: JSONL here, over [`json::Object`] and the escaper
//! ([`Event::append_json`], [`Event::from_json`]), and CMVB in [`crate::bin`],
//! over the frame codec. The query language ([`crate::query`]) finds a
//! field's values by walking the event too, so a new field goes into the
//! enum, the walk and the read, and both encodings and query matching
//! follow. The schema is documented in the crate docs ([`crate`]); the
//! root crate's `event_schema` test pins every byte both encoders write
//! and checks that table against it.

use crate::json::{self, Object};
use std::fmt::Write as _;

/// Why a message never reached its recipient.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Lost in transit by fault injection (`drop_rate`); the sender cannot
    /// tell.
    Lost,
    /// The recipient had crashed by delivery time.
    RecipientCrashed,
}

impl DropReason {
    /// Every reason in declaration order; a CMVB frame stores the index.
    pub(crate) const ALL: [DropReason; 2] = [DropReason::Lost, DropReason::RecipientCrashed];

    /// The wire name used in the `"reason"` field.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            DropReason::Lost => "lost",
            DropReason::RecipientCrashed => "crashed",
        }
    }
}

/// Protocol-level classification of a message, annotated onto the
/// `msg_sent`/`msg_delivered`/`msg_dropped` events when the network has a
/// classifier installed (see `Network::set_msg_classifier` in `cmvrp-net`).
///
/// The invariant monitors in [`crate::check`] need this to tell
/// Dijkstra–Scholten signal traffic (queries and their reply signals) apart
/// from Phase II move orders and §3.2.5 heartbeats; traces without the
/// annotation still parse, the kind-dependent monitors simply stay idle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgKind {
    /// A Dijkstra–Scholten query (Phase I spread).
    Query,
    /// A Dijkstra–Scholten reply (Phase I signal).
    Reply,
    /// A Phase II move order relayed along child pointers.
    Move,
    /// A §3.2.5 "existing" heartbeat.
    Heartbeat,
}

impl MsgKind {
    /// Every kind in declaration order; a CMVB frame stores the index plus
    /// one, and 0 for an unclassified message.
    pub(crate) const ALL: [MsgKind; 4] = [
        MsgKind::Query,
        MsgKind::Reply,
        MsgKind::Move,
        MsgKind::Heartbeat,
    ];

    /// The wire name used in the `"kind"` field.
    pub fn as_str(self) -> &'static str {
        match self {
            MsgKind::Query => "query",
            MsgKind::Reply => "reply",
            MsgKind::Move => "move",
            MsgKind::Heartbeat => "heartbeat",
        }
    }
}

/// One observable occurrence in a simulator run.
///
/// Positions are recorded as coordinate vectors so the event type stays
/// independent of the grid dimension.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A message was accepted for delivery at simulation time `t`.
    MsgSent {
        /// Send time.
        t: u64,
        /// Sender process.
        from: usize,
        /// Recipient process.
        to: usize,
        /// Protocol classification, when the network has a classifier.
        kind: Option<MsgKind>,
    },
    /// A message was handed to its recipient.
    MsgDelivered {
        /// Delivery time.
        t: u64,
        /// Sender process.
        from: usize,
        /// Recipient process.
        to: usize,
        /// Delivery time minus send time.
        delay: u64,
        /// Protocol classification, when the network has a classifier.
        kind: Option<MsgKind>,
    },
    /// A message will never arrive.
    MsgDropped {
        /// Time the loss was decided.
        t: u64,
        /// Sender process.
        from: usize,
        /// Recipient process.
        to: usize,
        /// Why it was lost.
        reason: DropReason,
        /// Protocol classification, when the network has a classifier.
        kind: Option<MsgKind>,
    },
    /// The driver released job number `seq` at `pos`.
    JobArrived {
        /// Release time.
        t: u64,
        /// Zero-based arrival index.
        seq: u64,
        /// Job position.
        pos: Vec<i64>,
    },
    /// Job number `seq` was served by `vehicle` for `cost` energy.
    JobServed {
        /// Service time.
        t: u64,
        /// Zero-based arrival index.
        seq: u64,
        /// Serving vehicle.
        vehicle: usize,
        /// Energy charged (walk + 1).
        cost: u64,
    },
    /// A Dijkstra–Scholten replacement search began.
    DiffusionStarted {
        /// Start time.
        t: u64,
        /// Initiating vehicle.
        initiator: usize,
        /// The initiator's computation generation.
        generation: u64,
    },
    /// A replacement search terminated at its initiator.
    DiffusionCompleted {
        /// Termination time.
        t: u64,
        /// Initiating vehicle.
        initiator: usize,
        /// The initiator's computation generation.
        generation: u64,
        /// Whether an idle vehicle was found.
        found: bool,
    },
    /// A summoned vehicle arrived and activated (Phase I + II complete).
    ReplacementCycle {
        /// Arrival time.
        t: u64,
        /// The relocated vehicle.
        vehicle: usize,
        /// Where it now serves.
        dest: Vec<i64>,
        /// Manhattan distance walked (energy charged for the relocation).
        dist: u64,
    },
    /// A watcher's monitored peer went silent past the heartbeat timeout.
    HeartbeatMissed {
        /// Detection time (watcher-local tick round).
        t: u64,
        /// The vehicle that noticed.
        watcher: usize,
        /// The silent peer.
        peer: usize,
    },
    /// The driver provisioned the fleet: one vehicle per grid vertex, each
    /// with battery capacity `W`. Emitted once at simulation start so trace
    /// consumers can run the energy-conservation monitor without being told
    /// `W` out of band.
    FleetProvisioned {
        /// Provisioning time (simulation start, normally 0).
        t: u64,
        /// Fleet size (process ids are `0..vehicles`).
        vehicles: u64,
        /// Per-vehicle battery capacity `W`.
        capacity: u64,
    },
    /// A process was crashed by failure injection; it must emit nothing and
    /// receive nothing from this point on.
    ProcessCrashed {
        /// Crash time.
        t: u64,
        /// The crashed process.
        proc: usize,
    },
    /// A named wall-clock span (phase timing), in nanoseconds since the
    /// process observability epoch ([`crate::now_ns`]).
    PhaseSpan {
        /// Phase name, e.g. `"alg1.coarsen"`.
        name: String,
        /// Span start.
        start_ns: u64,
        /// Span end.
        end_ns: u64,
    },
    /// One flight-recorder sample: where worker `worker` spent one lockstep
    /// round of wall-clock, captured by the engine coordinator at the
    /// barrier. Durations are signed so a corrupted (negative) value stays
    /// representable and is flagged by the `profile` monitor instead of
    /// failing to parse.
    RoundProfile {
        /// Zero-based lockstep round number.
        round: u64,
        /// Worker index (`0..workers`).
        worker: u64,
        /// Worker-pool size when the sample was taken.
        workers: u64,
        /// Wall-clock spent stepping shards this round.
        busy_ns: i64,
        /// Wall-clock parked at the round barrier.
        barrier_wait_ns: i64,
        /// Coordinator wall-clock spent k-way-merging shard streams.
        merge_ns: i64,
        /// Coordinator wall-clock spent inside `Sink::record`.
        sink_ns: i64,
        /// Protocol events merged out of this round.
        events: u64,
        /// Always 0: the engine's shards never move between workers. Kept
        /// so the event's CMVB layout stays unchanged.
        steals: u64,
    },
}

/// Each event kind's schema tag, in the declaration order of [`Event`]:
/// the `"ev"` value of a JSONL line and, one-based, the tag byte of a CMVB
/// frame. [`Event::walk`] and [`Event::read`] name a kind by its index
/// here.
pub(crate) const KINDS: [&str; 13] = [
    "msg_sent",
    "msg_delivered",
    "msg_dropped",
    "job_arrived",
    "job_served",
    "diffusion_started",
    "diffusion_completed",
    "replacement_cycle",
    "heartbeat_missed",
    "fleet_provisioned",
    "process_crashed",
    "phase_span",
    "round_profile",
];

/// The write side of an encoding. [`Event::walk`] calls
/// [`FieldWriter::kind`] once, then one method per field with the field's
/// JSONL key. The field methods default to skipping the field, for walks
/// that look at only some of them.
pub(crate) trait FieldWriter {
    /// The event's kind, as its index in [`KINDS`].
    fn kind(&mut self, index: usize);
    /// An unsigned integer.
    fn u64(&mut self, _key: &'static str, _v: u64) {}
    /// A process id; encoded as an unsigned integer.
    fn id(&mut self, key: &'static str, v: usize) {
        self.u64(key, v as u64);
    }
    /// A signed integer.
    fn i64(&mut self, _key: &'static str, _v: i64) {}
    /// A boolean.
    fn bool(&mut self, _key: &'static str, _v: bool) {}
    /// A string.
    fn str(&mut self, _key: &'static str, _v: &str) {}
    /// A position: one signed coordinate per grid dimension.
    fn pos(&mut self, _key: &'static str, _v: &[i64]) {}
    /// Why a message was dropped.
    fn reason(&mut self, _key: &'static str, _v: DropReason) {}
    /// A message's optional protocol classification.
    fn msg_kind(&mut self, _key: &'static str, _v: Option<MsgKind>) {}
}

/// The read side of an encoding: [`Event::read`] asks for the kind, then
/// for each field by its JSONL key, in the order [`Event::walk`] wrote
/// them.
pub(crate) trait FieldReader {
    /// A decode error naming what is malformed.
    type Error;
    /// The event's kind, as its index in [`KINDS`].
    fn kind(&mut self) -> Result<usize, Self::Error>;
    /// An unsigned integer.
    fn u64(&mut self, key: &str) -> Result<u64, Self::Error>;
    /// An unsigned integer that JSONL schema v2 added: a v1 line without
    /// it reads 0. Other encodings always carry it.
    fn u64_since_v2(&mut self, key: &str) -> Result<u64, Self::Error> {
        self.u64(key)
    }
    /// A process id.
    fn id(&mut self, key: &str) -> Result<usize, Self::Error>;
    /// A signed integer.
    fn i64(&mut self, key: &str) -> Result<i64, Self::Error>;
    /// A boolean.
    fn bool(&mut self, key: &str) -> Result<bool, Self::Error>;
    /// A string.
    fn str(&mut self, key: &str) -> Result<String, Self::Error>;
    /// A position.
    fn pos(&mut self, key: &str) -> Result<Vec<i64>, Self::Error>;
    /// Why a message was dropped.
    fn reason(&mut self, key: &str) -> Result<DropReason, Self::Error>;
    /// A message's optional protocol classification.
    fn msg_kind(&mut self, key: &str) -> Result<Option<MsgKind>, Self::Error>;
}

impl Event {
    /// The event's schema tag (the `"ev"` field of its JSON form).
    pub fn kind(&self) -> &'static str {
        struct Kind(usize);
        impl FieldWriter for Kind {
            fn kind(&mut self, index: usize) {
                self.0 = index;
            }
        }
        let mut kind = Kind(0);
        self.walk(&mut kind);
        KINDS[kind.0]
    }

    /// The event's global simulation timestamp, when it carries one.
    ///
    /// `heartbeat_missed` is stamped in watcher-local tick rounds,
    /// `phase_span` in wall-clock nanoseconds, and `round_profile` in
    /// lockstep rounds; none of them lives on the global simulation clock,
    /// so all return `None` (and are exactly the events the clock monitor
    /// exempts).
    pub fn time(&self) -> Option<u64> {
        match self {
            Event::MsgSent { t, .. }
            | Event::MsgDelivered { t, .. }
            | Event::MsgDropped { t, .. }
            | Event::JobArrived { t, .. }
            | Event::JobServed { t, .. }
            | Event::DiffusionStarted { t, .. }
            | Event::DiffusionCompleted { t, .. }
            | Event::ReplacementCycle { t, .. }
            | Event::FleetProvisioned { t, .. }
            | Event::ProcessCrashed { t, .. } => Some(*t),
            Event::HeartbeatMissed { .. }
            | Event::PhaseSpan { .. }
            | Event::RoundProfile { .. } => None,
        }
    }

    /// Hands `w` the event's kind, then every field with its JSONL key in
    /// wire order. With [`Event::read`], this is the schema's one field
    /// list; both encoders and the query language go through it.
    pub(crate) fn walk<W: FieldWriter>(&self, w: &mut W) {
        match self {
            Event::MsgSent { t, from, to, kind } => {
                w.kind(0);
                w.u64("t", *t);
                w.id("from", *from);
                w.id("to", *to);
                w.msg_kind("kind", *kind);
            }
            Event::MsgDelivered {
                t,
                from,
                to,
                delay,
                kind,
            } => {
                w.kind(1);
                w.u64("t", *t);
                w.id("from", *from);
                w.id("to", *to);
                w.u64("delay", *delay);
                w.msg_kind("kind", *kind);
            }
            Event::MsgDropped {
                t,
                from,
                to,
                reason,
                kind,
            } => {
                w.kind(2);
                w.u64("t", *t);
                w.id("from", *from);
                w.id("to", *to);
                w.reason("reason", *reason);
                w.msg_kind("kind", *kind);
            }
            Event::JobArrived { t, seq, pos } => {
                w.kind(3);
                w.u64("t", *t);
                w.u64("seq", *seq);
                w.pos("pos", pos);
            }
            Event::JobServed {
                t,
                seq,
                vehicle,
                cost,
            } => {
                w.kind(4);
                w.u64("t", *t);
                w.u64("seq", *seq);
                w.id("vehicle", *vehicle);
                w.u64("cost", *cost);
            }
            Event::DiffusionStarted {
                t,
                initiator,
                generation,
            } => {
                w.kind(5);
                w.u64("t", *t);
                w.id("initiator", *initiator);
                w.u64("generation", *generation);
            }
            Event::DiffusionCompleted {
                t,
                initiator,
                generation,
                found,
            } => {
                w.kind(6);
                w.u64("t", *t);
                w.id("initiator", *initiator);
                w.u64("generation", *generation);
                w.bool("found", *found);
            }
            Event::ReplacementCycle {
                t,
                vehicle,
                dest,
                dist,
            } => {
                w.kind(7);
                w.u64("t", *t);
                w.id("vehicle", *vehicle);
                w.pos("dest", dest);
                w.u64("dist", *dist);
            }
            Event::HeartbeatMissed { t, watcher, peer } => {
                w.kind(8);
                w.u64("t", *t);
                w.id("watcher", *watcher);
                w.id("peer", *peer);
            }
            Event::FleetProvisioned {
                t,
                vehicles,
                capacity,
            } => {
                w.kind(9);
                w.u64("t", *t);
                w.u64("vehicles", *vehicles);
                w.u64("capacity", *capacity);
            }
            Event::ProcessCrashed { t, proc } => {
                w.kind(10);
                w.u64("t", *t);
                w.id("proc", *proc);
            }
            Event::PhaseSpan {
                name,
                start_ns,
                end_ns,
            } => {
                w.kind(11);
                w.str("name", name);
                w.u64("start_ns", *start_ns);
                w.u64("end_ns", *end_ns);
            }
            Event::RoundProfile {
                round,
                worker,
                workers,
                busy_ns,
                barrier_wait_ns,
                merge_ns,
                sink_ns,
                events,
                steals,
            } => {
                w.kind(12);
                w.u64("round", *round);
                w.u64("worker", *worker);
                w.u64("workers", *workers);
                w.i64("busy_ns", *busy_ns);
                w.i64("barrier_wait_ns", *barrier_wait_ns);
                w.i64("merge_ns", *merge_ns);
                w.i64("sink_ns", *sink_ns);
                w.u64("events", *events);
                w.u64("steals", *steals);
            }
        }
    }

    /// Builds an event from `r`, field by field in [`Event::walk`]'s
    /// order; the first malformed field is the error.
    pub(crate) fn read<R: FieldReader>(r: &mut R) -> Result<Event, R::Error> {
        Ok(match r.kind()? {
            0 => Event::MsgSent {
                t: r.u64("t")?,
                from: r.id("from")?,
                to: r.id("to")?,
                kind: r.msg_kind("kind")?,
            },
            1 => Event::MsgDelivered {
                t: r.u64("t")?,
                from: r.id("from")?,
                to: r.id("to")?,
                delay: r.u64("delay")?,
                kind: r.msg_kind("kind")?,
            },
            2 => Event::MsgDropped {
                t: r.u64("t")?,
                from: r.id("from")?,
                to: r.id("to")?,
                reason: r.reason("reason")?,
                kind: r.msg_kind("kind")?,
            },
            3 => Event::JobArrived {
                t: r.u64("t")?,
                seq: r.u64("seq")?,
                pos: r.pos("pos")?,
            },
            4 => Event::JobServed {
                t: r.u64("t")?,
                seq: r.u64("seq")?,
                vehicle: r.id("vehicle")?,
                cost: r.u64("cost")?,
            },
            5 => Event::DiffusionStarted {
                t: r.u64("t")?,
                initiator: r.id("initiator")?,
                generation: r.u64("generation")?,
            },
            6 => Event::DiffusionCompleted {
                t: r.u64("t")?,
                initiator: r.id("initiator")?,
                generation: r.u64("generation")?,
                found: r.bool("found")?,
            },
            7 => Event::ReplacementCycle {
                t: r.u64("t")?,
                vehicle: r.id("vehicle")?,
                dest: r.pos("dest")?,
                dist: r.u64_since_v2("dist")?,
            },
            8 => Event::HeartbeatMissed {
                t: r.u64("t")?,
                watcher: r.id("watcher")?,
                peer: r.id("peer")?,
            },
            9 => Event::FleetProvisioned {
                t: r.u64("t")?,
                vehicles: r.u64("vehicles")?,
                capacity: r.u64("capacity")?,
            },
            10 => Event::ProcessCrashed {
                t: r.u64("t")?,
                proc: r.id("proc")?,
            },
            11 => Event::PhaseSpan {
                name: r.str("name")?,
                start_ns: r.u64("start_ns")?,
                end_ns: r.u64("end_ns")?,
            },
            // Signed durations: a corrupted (negative) sample reads so the
            // `profile` monitor, not the decoder, is what rejects it.
            12 => Event::RoundProfile {
                round: r.u64("round")?,
                worker: r.u64("worker")?,
                workers: r.u64("workers")?,
                busy_ns: r.i64("busy_ns")?,
                barrier_wait_ns: r.i64("barrier_wait_ns")?,
                merge_ns: r.i64("merge_ns")?,
                sink_ns: r.i64("sink_ns")?,
                events: r.u64("events")?,
                steals: r.u64("steals")?,
            },
            _ => unreachable!("FieldReader::kind returns an index into KINDS"),
        })
    }

    /// Renders the event as one line of JSON (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut line = String::with_capacity(64);
        self.append_json(&mut line);
        line
    }

    /// Appends [`Event::to_json`]'s line (no trailing newline) to `out`,
    /// so a writer of many lines can reuse one buffer.
    pub fn append_json(&self, out: &mut String) {
        self.walk(out);
        out.push('}');
    }

    /// Parses one JSONL line produced by [`Event::to_json`]. Keys outside
    /// the event's schema are ignored: the schema is append-only.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed construct.
    pub fn from_json(line: &str) -> Result<Event, String> {
        Event::read(&mut &Object::parse(line, "event")?)
    }
}

/// The JSONL writer: the walk opens the object with its `"ev"` tag and
/// appends each field as `,"key":value`; [`Event::append_json`] closes it. An
/// unclassified message leaves its `kind` out.
impl FieldWriter for String {
    fn kind(&mut self, index: usize) {
        self.push_str("{\"ev\":\"");
        self.push_str(KINDS[index]);
        self.push('"');
    }

    fn u64(&mut self, key: &'static str, v: u64) {
        push_key(self, key);
        let _ = write!(self, "{v}");
    }

    fn i64(&mut self, key: &'static str, v: i64) {
        push_key(self, key);
        let _ = write!(self, "{v}");
    }

    fn bool(&mut self, key: &'static str, v: bool) {
        push_key(self, key);
        self.push_str(if v { "true" } else { "false" });
    }

    fn str(&mut self, key: &'static str, v: &str) {
        push_key(self, key);
        json::write_str(self, v);
    }

    fn pos(&mut self, key: &'static str, v: &[i64]) {
        push_key(self, key);
        self.push('[');
        for (i, c) in v.iter().enumerate() {
            if i > 0 {
                self.push(',');
            }
            let _ = write!(self, "{c}");
        }
        self.push(']');
    }

    fn reason(&mut self, key: &'static str, v: DropReason) {
        push_key(self, key);
        push_name(self, v.as_str());
    }

    fn msg_kind(&mut self, key: &'static str, v: Option<MsgKind>) {
        if let Some(k) = v {
            push_key(self, key);
            push_name(self, k.as_str());
        }
    }
}

/// Appends `,"key":`.
fn push_key(line: &mut String, key: &str) {
    line.push_str(",\"");
    line.push_str(key);
    line.push_str("\":");
}

/// Appends a wire name, which needs no escaping, as a JSON string.
fn push_name(line: &mut String, name: &str) {
    line.push('"');
    line.push_str(name);
    line.push('"');
}

fn required<T>(value: Option<T>, key: &str) -> Result<T, String> {
    value.ok_or_else(|| format!("missing field {key:?}"))
}

/// The JSONL reader: each field is looked up by its key, wherever it sits
/// in the line. Only `kind` and pre-v2 `dist` may be absent.
impl FieldReader for &Object<'_> {
    type Error = String;

    fn kind(&mut self) -> Result<usize, String> {
        let ev = required(Object::str(self, "ev")?, "ev")?;
        KINDS
            .iter()
            .position(|k| *k == ev)
            .ok_or_else(|| format!("unknown event kind {ev:?}"))
    }

    fn u64(&mut self, key: &str) -> Result<u64, String> {
        required(Object::u64(self, key)?, key)
    }

    fn u64_since_v2(&mut self, key: &str) -> Result<u64, String> {
        Ok(Object::u64(self, key)?.unwrap_or(0))
    }

    fn id(&mut self, key: &str) -> Result<usize, String> {
        FieldReader::u64(self, key).map(|v| v as usize)
    }

    fn i64(&mut self, key: &str) -> Result<i64, String> {
        required(Object::i64(self, key)?, key)
    }

    fn bool(&mut self, key: &str) -> Result<bool, String> {
        required(Object::bool(self, key)?, key)
    }

    fn str(&mut self, key: &str) -> Result<String, String> {
        required(Object::str(self, key)?, key).map(str::to_string)
    }

    fn pos(&mut self, key: &str) -> Result<Vec<i64>, String> {
        required(Object::arr(self, key)?, key).map(<[i64]>::to_vec)
    }

    fn reason(&mut self, key: &str) -> Result<DropReason, String> {
        let name = required(Object::str(self, key)?, key)?;
        DropReason::ALL
            .into_iter()
            .find(|r| r.as_str() == name)
            .ok_or_else(|| format!("unknown drop reason {name:?}"))
    }

    fn msg_kind(&mut self, key: &str) -> Result<Option<MsgKind>, String> {
        let Some(name) = Object::str(self, key)? else {
            return Ok(None);
        };
        MsgKind::ALL
            .into_iter()
            .find(|k| k.as_str() == name)
            .map(Some)
            .ok_or_else(|| format!("unknown msg kind {name:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Event> {
        vec![
            Event::MsgSent {
                t: 3,
                from: 1,
                to: 2,
                kind: None,
            },
            Event::MsgSent {
                t: 3,
                from: 1,
                to: 2,
                kind: Some(MsgKind::Query),
            },
            Event::MsgDelivered {
                t: 5,
                from: 1,
                to: 2,
                delay: 2,
                kind: None,
            },
            Event::MsgDelivered {
                t: 5,
                from: 1,
                to: 2,
                delay: 2,
                kind: Some(MsgKind::Reply),
            },
            Event::MsgDropped {
                t: 5,
                from: 0,
                to: 9,
                reason: DropReason::Lost,
                kind: Some(MsgKind::Heartbeat),
            },
            Event::MsgDropped {
                t: 6,
                from: 0,
                to: 9,
                reason: DropReason::RecipientCrashed,
                kind: None,
            },
            Event::JobArrived {
                t: 9,
                seq: 0,
                pos: vec![5, -5],
            },
            Event::JobServed {
                t: 9,
                seq: 0,
                vehicle: 60,
                cost: 1,
            },
            Event::DiffusionStarted {
                t: 10,
                initiator: 60,
                generation: 0,
            },
            Event::DiffusionCompleted {
                t: 14,
                initiator: 60,
                generation: 0,
                found: true,
            },
            Event::ReplacementCycle {
                t: 15,
                vehicle: 61,
                dest: vec![5, 5],
                dist: 3,
            },
            Event::HeartbeatMissed {
                t: 20,
                watcher: 3,
                peer: 4,
            },
            Event::FleetProvisioned {
                t: 0,
                vehicles: 144,
                capacity: 40,
            },
            Event::ProcessCrashed { t: 7, proc: 11 },
            Event::PhaseSpan {
                name: "alg1.coarsen".into(),
                start_ns: 12,
                end_ns: 456,
            },
            Event::RoundProfile {
                round: 42,
                worker: 1,
                workers: 2,
                busy_ns: 120_000,
                barrier_wait_ns: 3_000,
                merge_ns: 900,
                sink_ns: 450,
                events: 17,
                steals: 2,
            },
        ]
    }

    #[test]
    fn json_roundtrip_every_variant() {
        for ev in samples() {
            let line = ev.to_json();
            let back = Event::from_json(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, ev, "line was {line}");
        }
    }

    #[test]
    fn json_is_single_line_flat_object() {
        for ev in samples() {
            let line = ev.to_json();
            assert!(!line.contains('\n'));
            assert!(line.starts_with("{\"ev\":\""));
            assert!(line.ends_with('}'));
        }
    }

    #[test]
    fn escaped_span_name_roundtrips() {
        for name in ["we\"ird\\name", "a\nb", "tab\there\r\u{1}\u{7f}", "π/∑ 😀"] {
            let ev = Event::PhaseSpan {
                name: name.into(),
                start_ns: 0,
                end_ns: 1,
            };
            let line = ev.to_json();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(Event::from_json(&line).unwrap(), ev, "{line}");
        }
        // Every escape the escaper writes reads back, plus `\/`.
        let ev = Event::from_json(
            "{\"ev\":\"phase_span\",\"name\":\"a\\nb\\/c\\u0001\",\"start_ns\":0,\"end_ns\":1}",
        )
        .unwrap();
        assert!(matches!(ev, Event::PhaseSpan { name, .. } if name == "a\nb/c\u{1}"));
    }

    #[test]
    fn parse_tolerates_whitespace() {
        let ev =
            Event::from_json(" {\"ev\": \"msg_sent\", \"t\": 1, \"from\": 2, \"to\": 3} ").unwrap();
        assert_eq!(
            ev,
            Event::MsgSent {
                t: 1,
                from: 2,
                to: 3,
                kind: None,
            }
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Event::from_json("not json").is_err());
        assert!(Event::from_json("{\"ev\":\"wat\"}").is_err());
        assert!(Event::from_json("{\"ev\":\"msg_sent\",\"t\":1}").is_err()); // missing fields
        assert!(Event::from_json("{\"ev\":\"msg_sent\",\"t\":-1,\"from\":0,\"to\":0}").is_err());
        // A present-but-unknown kind is malformed, not ignored.
        assert!(Event::from_json(
            "{\"ev\":\"msg_sent\",\"t\":1,\"from\":0,\"to\":1,\"kind\":\"telegram\"}"
        )
        .is_err());
        // Malformed arrays, a trailing comma, and a repeated key.
        for pos in ["[1 2]", "[1,,2]", "[,]", "[1,2,]"] {
            let line = format!("{{\"ev\":\"job_arrived\",\"t\":1,\"seq\":0,\"pos\":{pos}}}");
            assert!(Event::from_json(&line).is_err(), "{line}");
        }
        assert!(Event::from_json("{\"ev\":\"process_crashed\",\"t\":1,\"proc\":2,}").is_err());
        let e = Event::from_json("{\"ev\":\"process_crashed\",\"t\":1,\"t\":2,\"proc\":2}")
            .unwrap_err();
        assert!(e.contains("duplicate key \"t\""), "{e}");
    }

    /// Deterministic byte flips of every sample line, then plain garbage:
    /// the parser returns an event or an error, never panics, and every
    /// event it accepts writes back to a line that parses to itself.
    #[test]
    fn random_mutations_parse_or_fail_cleanly() {
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let lines: Vec<String> = samples().iter().map(Event::to_json).collect();
        for round in 0..4000 {
            let bytes: Vec<u8> = if round % 2 == 0 {
                let mut bytes = lines[round / 2 % lines.len()].clone().into_bytes();
                for _ in 0..=(rng() % 3) {
                    let i = (rng() % bytes.len() as u64) as usize;
                    bytes[i] ^= (rng() % 255 + 1) as u8;
                }
                bytes
            } else {
                const PIECES: &[u8] = b"{}[]\",:-0123456789 tfnu\\evtkind";
                (0..rng() % 48)
                    .map(|_| PIECES[(rng() % PIECES.len() as u64) as usize])
                    .collect()
            };
            let line = String::from_utf8_lossy(&bytes);
            match Event::from_json(&line) {
                Ok(ev) => assert_eq!(Event::from_json(&ev.to_json()).unwrap(), ev, "{line}"),
                Err(e) => assert!(!e.is_empty(), "{line}"),
            }
        }
    }

    #[test]
    fn pre_v2_replacement_cycle_still_parses() {
        // Traces recorded before `dist` joined the schema default it to 0.
        let ev = Event::from_json(
            "{\"ev\":\"replacement_cycle\",\"t\":15,\"vehicle\":61,\"dest\":[5,5]}",
        )
        .unwrap();
        assert_eq!(
            ev,
            Event::ReplacementCycle {
                t: 15,
                vehicle: 61,
                dest: vec![5, 5],
                dist: 0,
            }
        );
    }

    #[test]
    fn negative_profile_duration_parses_for_the_checker() {
        // A corrupted flight-recorder sample must reach the `profile`
        // monitor rather than die in the parser.
        let ev = Event::RoundProfile {
            round: 0,
            worker: 0,
            workers: 1,
            busy_ns: -5,
            barrier_wait_ns: 0,
            merge_ns: 0,
            sink_ns: 0,
            events: 0,
            steals: 0,
        };
        assert_eq!(Event::from_json(&ev.to_json()).unwrap(), ev);
        assert_eq!(ev.time(), None);
    }

    #[test]
    fn kind_matches_wire_tag() {
        for ev in samples() {
            assert!(ev.to_json().contains(&format!("\"ev\":\"{}\"", ev.kind())));
        }
    }
}
