//! Typed trace events and their JSONL wire form.
//!
//! Every event serializes to exactly one line of flat JSON via
//! [`Event::to_json`] and parses back via [`Event::from_json`]; the two are
//! inverse on every variant (tested). The schema is documented in the crate
//! docs ([`crate`]).

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
    fn as_str(self) -> &'static str {
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
    /// The wire name used in the `"kind"` field.
    pub fn as_str(self) -> &'static str {
        match self {
            MsgKind::Query => "query",
            MsgKind::Reply => "reply",
            MsgKind::Move => "move",
            MsgKind::Heartbeat => "heartbeat",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "query" => Ok(MsgKind::Query),
            "reply" => Ok(MsgKind::Reply),
            "move" => Ok(MsgKind::Move),
            "heartbeat" => Ok(MsgKind::Heartbeat),
            other => Err(format!("unknown msg kind {other:?}")),
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

fn push_kind(out: &mut String, kind: &Option<MsgKind>) {
    if let Some(k) = kind {
        let _ = write!(out, ",\"kind\":\"{}\"", k.as_str());
    }
}

fn push_pos(out: &mut String, key: &str, pos: &[i64]) {
    let _ = write!(out, ",\"{key}\":[");
    for (i, c) in pos.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{c}");
    }
    out.push(']');
}

impl Event {
    /// The event's schema tag (the `"ev"` field of its JSON form).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::MsgSent { .. } => "msg_sent",
            Event::MsgDelivered { .. } => "msg_delivered",
            Event::MsgDropped { .. } => "msg_dropped",
            Event::JobArrived { .. } => "job_arrived",
            Event::JobServed { .. } => "job_served",
            Event::DiffusionStarted { .. } => "diffusion_started",
            Event::DiffusionCompleted { .. } => "diffusion_completed",
            Event::ReplacementCycle { .. } => "replacement_cycle",
            Event::HeartbeatMissed { .. } => "heartbeat_missed",
            Event::FleetProvisioned { .. } => "fleet_provisioned",
            Event::ProcessCrashed { .. } => "process_crashed",
            Event::PhaseSpan { .. } => "phase_span",
            Event::RoundProfile { .. } => "round_profile",
        }
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

    /// Renders the event as one line of JSON (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(64);
        let _ = write!(s, "{{\"ev\":\"{}\"", self.kind());
        match self {
            Event::MsgSent { t, from, to, kind } => {
                let _ = write!(s, ",\"t\":{t},\"from\":{from},\"to\":{to}");
                push_kind(&mut s, kind);
            }
            Event::MsgDelivered {
                t,
                from,
                to,
                delay,
                kind,
            } => {
                let _ = write!(
                    s,
                    ",\"t\":{t},\"from\":{from},\"to\":{to},\"delay\":{delay}"
                );
                push_kind(&mut s, kind);
            }
            Event::MsgDropped {
                t,
                from,
                to,
                reason,
                kind,
            } => {
                let _ = write!(
                    s,
                    ",\"t\":{t},\"from\":{from},\"to\":{to},\"reason\":\"{}\"",
                    reason.as_str()
                );
                push_kind(&mut s, kind);
            }
            Event::JobArrived { t, seq, pos } => {
                let _ = write!(s, ",\"t\":{t},\"seq\":{seq}");
                push_pos(&mut s, "pos", pos);
            }
            Event::JobServed {
                t,
                seq,
                vehicle,
                cost,
            } => {
                let _ = write!(
                    s,
                    ",\"t\":{t},\"seq\":{seq},\"vehicle\":{vehicle},\"cost\":{cost}"
                );
            }
            Event::DiffusionStarted {
                t,
                initiator,
                generation,
            } => {
                let _ = write!(
                    s,
                    ",\"t\":{t},\"initiator\":{initiator},\"generation\":{generation}"
                );
            }
            Event::DiffusionCompleted {
                t,
                initiator,
                generation,
                found,
            } => {
                let _ = write!(
                    s,
                    ",\"t\":{t},\"initiator\":{initiator},\"generation\":{generation},\"found\":{found}"
                );
            }
            Event::ReplacementCycle {
                t,
                vehicle,
                dest,
                dist,
            } => {
                let _ = write!(s, ",\"t\":{t},\"vehicle\":{vehicle}");
                push_pos(&mut s, "dest", dest);
                let _ = write!(s, ",\"dist\":{dist}");
            }
            Event::HeartbeatMissed { t, watcher, peer } => {
                let _ = write!(s, ",\"t\":{t},\"watcher\":{watcher},\"peer\":{peer}");
            }
            Event::FleetProvisioned {
                t,
                vehicles,
                capacity,
            } => {
                let _ = write!(
                    s,
                    ",\"t\":{t},\"vehicles\":{vehicles},\"capacity\":{capacity}"
                );
            }
            Event::ProcessCrashed { t, proc } => {
                let _ = write!(s, ",\"t\":{t},\"proc\":{proc}");
            }
            Event::PhaseSpan {
                name,
                start_ns,
                end_ns,
            } => {
                s.push_str(",\"name\":");
                json::write_str(&mut s, name);
                let _ = write!(s, ",\"start_ns\":{start_ns},\"end_ns\":{end_ns}");
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
                let _ = write!(
                    s,
                    ",\"round\":{round},\"worker\":{worker},\"workers\":{workers},\"busy_ns\":{busy_ns},\"barrier_wait_ns\":{barrier_wait_ns},\"merge_ns\":{merge_ns},\"sink_ns\":{sink_ns},\"events\":{events},\"steals\":{steals}"
                );
            }
        }
        s.push('}');
        s
    }

    /// Parses one JSONL line produced by [`Event::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed construct.
    pub fn from_json(line: &str) -> Result<Event, String> {
        Event::from_object(&Object::parse(line, "event")?)
    }

    /// Reads an event from a parsed line. Keys outside the event's schema
    /// are ignored: the schema is append-only.
    pub(crate) fn from_object(o: &Object<'_>) -> Result<Event, String> {
        let missing = |key: &str| format!("missing field {key:?}");
        let u = |key: &str| o.u64(key)?.ok_or_else(|| missing(key));
        let id = |key: &str| u(key).map(|v| v as usize);
        let i = |key: &str| o.i64(key)?.ok_or_else(|| missing(key));
        let s = |key: &str| o.str(key)?.ok_or_else(|| missing(key));
        let pos = |key: &str| o.arr(key)?.map(<[i64]>::to_vec).ok_or_else(|| missing(key));
        let kind = || o.str("kind")?.map(MsgKind::parse).transpose();
        let ev = match s("ev")? {
            "msg_sent" => Event::MsgSent {
                t: u("t")?,
                from: id("from")?,
                to: id("to")?,
                kind: kind()?,
            },
            "msg_delivered" => Event::MsgDelivered {
                t: u("t")?,
                from: id("from")?,
                to: id("to")?,
                delay: u("delay")?,
                kind: kind()?,
            },
            "msg_dropped" => Event::MsgDropped {
                t: u("t")?,
                from: id("from")?,
                to: id("to")?,
                reason: match s("reason")? {
                    "lost" => DropReason::Lost,
                    "crashed" => DropReason::RecipientCrashed,
                    other => return Err(format!("unknown drop reason {other:?}")),
                },
                kind: kind()?,
            },
            "job_arrived" => Event::JobArrived {
                t: u("t")?,
                seq: u("seq")?,
                pos: pos("pos")?,
            },
            "job_served" => Event::JobServed {
                t: u("t")?,
                seq: u("seq")?,
                vehicle: id("vehicle")?,
                cost: u("cost")?,
            },
            "diffusion_started" => Event::DiffusionStarted {
                t: u("t")?,
                initiator: id("initiator")?,
                generation: u("generation")?,
            },
            "diffusion_completed" => Event::DiffusionCompleted {
                t: u("t")?,
                initiator: id("initiator")?,
                generation: u("generation")?,
                found: o.bool("found")?.ok_or_else(|| missing("found"))?,
            },
            "replacement_cycle" => Event::ReplacementCycle {
                t: u("t")?,
                vehicle: id("vehicle")?,
                dest: pos("dest")?,
                // `dist` joined the schema in v2; pre-v2 traces omit it.
                dist: o.u64("dist")?.unwrap_or(0),
            },
            "heartbeat_missed" => Event::HeartbeatMissed {
                t: u("t")?,
                watcher: id("watcher")?,
                peer: id("peer")?,
            },
            "fleet_provisioned" => Event::FleetProvisioned {
                t: u("t")?,
                vehicles: u("vehicles")?,
                capacity: u("capacity")?,
            },
            "process_crashed" => Event::ProcessCrashed {
                t: u("t")?,
                proc: id("proc")?,
            },
            "phase_span" => Event::PhaseSpan {
                name: s("name")?.to_string(),
                start_ns: u("start_ns")?,
                end_ns: u("end_ns")?,
            },
            // Signed durations: a corrupted (negative) sample parses so the
            // `profile` monitor, not the parser, is what rejects it.
            "round_profile" => Event::RoundProfile {
                round: u("round")?,
                worker: u("worker")?,
                workers: u("workers")?,
                busy_ns: i("busy_ns")?,
                barrier_wait_ns: i("barrier_wait_ns")?,
                merge_ns: i("merge_ns")?,
                sink_ns: i("sink_ns")?,
                events: u("events")?,
                steals: u("steals")?,
            },
            other => return Err(format!("unknown event kind {other:?}")),
        };
        Ok(ev)
    }
}

/// Reads the events of a JSONL trace, one per line. Blank lines are
/// skipped but still counted, so every item carries its 1-based physical
/// line number and the line itself; a malformed line yields
/// `Err((line number, parse error))`.
pub fn jsonl_events<'a>(
    lines: impl IntoIterator<Item = &'a str>,
) -> impl Iterator<Item = Result<(usize, &'a str, Event), (usize, String)>> {
    lines
        .into_iter()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| match Event::from_json(line) {
            Ok(ev) => Ok((i + 1, line, ev)),
            Err(msg) => Err((i + 1, msg)),
        })
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
    fn jsonl_events_number_physical_lines() {
        let text = "{\"ev\":\"process_crashed\",\"t\":1,\"proc\":2}\n\n  \nnot json\n";
        let items: Vec<_> = jsonl_events(text.lines()).collect();
        assert_eq!(items.len(), 2);
        let (n, line, ev) = items[0].clone().unwrap();
        assert_eq!(
            (n, line),
            (1, "{\"ev\":\"process_crashed\",\"t\":1,\"proc\":2}")
        );
        assert_eq!(ev, Event::ProcessCrashed { t: 1, proc: 2 });
        assert_eq!(items[1].clone().unwrap_err().0, 4);
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
