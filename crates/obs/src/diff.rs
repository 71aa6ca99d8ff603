//! Semantic trace diff: localize the *first divergence* between two runs.
//!
//! The engine's headline guarantee is a canonical `(time, shard, seq)`
//! merged trace, byte-identical across every (workers × checked)
//! combination. When that breaks — or when two runs of the same
//! instance are compared on purpose — a byte-level `cmp` only says *that*
//! they differ. [`diff_traces`] says *where* (line/frame number and the
//! simulation-time band), *which event*, and *why*, classifying the first
//! divergence into a small taxonomy:
//!
//! - **Payload drift** — the streams carry the same event kind at the
//!   divergence point but with different field values; the report lists
//!   each differing field with both values.
//! - **Reordered** — the streams carry the *same multiset* of events
//!   within one simulation-time band, permuted. A pure reordering is a
//!   determinism bug in the merge, not a behavioral difference, and the
//!   report says so.
//! - **Event set** — the streams genuinely contain different events from
//!   the divergence point; the first differing event of each side is
//!   shown.
//! - **Truncated** — one stream is a strict prefix of the other.
//!
//! Both traces come through the one reader ([`crate::load`]) and are
//! compared as [`Event`]s, whatever their encoding or JSONL spelling (keys
//! outside the schema are ignored). Within one encoding equal lines or
//! frames are equal events, so an agreeing prefix is compared as bytes and
//! decoded only from the first difference. Values and context lines print
//! as [`Event::to_json`] writes them. Memory is O(time band) beyond the
//! files' bytes; the context windows are read by a second pass.

use crate::event::Event;
use crate::json::Object;
use crate::load::{LoadedTrace, Record};
use std::fmt;

/// A scoped failure while diffing: which input, which line, what broke.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffError {
    /// Which input the bad line came from.
    pub side: Side,
    /// 1-based line number.
    pub line: usize,
    /// The parse error.
    pub msg: String,
}

impl fmt::Display for DiffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace {}, line {}: {}",
            self.side.name(),
            self.line,
            self.msg
        )
    }
}

impl std::error::Error for DiffError {}

/// Names the two inputs of a diff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The first trace.
    A,
    /// The second trace.
    B,
}

impl Side {
    /// `"A"` or `"B"`.
    pub fn name(self) -> &'static str {
        match self {
            Side::A => "A",
            Side::B => "B",
        }
    }
}

/// One differing field of a same-kind event pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDelta {
    /// Field name.
    pub field: String,
    /// The value in trace A as the JSONL writer spells it (`"<absent>"`
    /// when missing).
    pub a: String,
    /// The value in trace B.
    pub b: String,
}

/// Why the traces diverged — see the [module docs](self) for the taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DivergenceKind {
    /// Same event kind, different payload.
    PayloadDrift {
        /// The shared event kind.
        kind: String,
        /// Every field whose value differs.
        fields: Vec<FieldDelta>,
    },
    /// Same multiset of events within the time band, permuted.
    Reordered {
        /// The simulation-time band that was permuted.
        t: u64,
        /// Events remaining in the band from the divergence point.
        band_len: usize,
    },
    /// Genuinely different events from the divergence point on.
    EventSet {
        /// Kind of trace A's event at the divergence point.
        a_kind: String,
        /// Kind of trace B's event at the divergence point.
        b_kind: String,
    },
    /// One trace ended while the other continued.
    Truncated {
        /// The side that has more events.
        longer: Side,
        /// How many extra events it has.
        extra: usize,
    },
}

/// The first divergence, with context windows from both traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// 1-based line (JSONL) / frame (binary) number of the first
    /// difference; for truncation, the first line the shorter side lacks.
    pub line: usize,
    /// The simulation-time band the divergence falls in, when the events
    /// there carry one (the "round" of the run).
    pub time: Option<u64>,
    /// Classification.
    pub kind: DivergenceKind,
    /// Up to `context` lines before through `context` lines after the
    /// divergence in trace A, as `(line number, text)`.
    pub context_a: Vec<(usize, String)>,
    /// The same window from trace B.
    pub context_b: Vec<(usize, String)>,
}

/// Outcome of a [`diff_traces`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffReport {
    /// Events that matched before the divergence (the whole trace when
    /// identical).
    pub matched: usize,
    /// The first divergence, or `None` when the traces agree event for
    /// event.
    pub divergence: Option<Divergence>,
}

impl DiffReport {
    /// Whether the traces carry the same event sequence.
    pub fn is_identical(&self) -> bool {
        self.divergence.is_none()
    }
}

/// Decodes a record of trace `side`, scoping a parse error to it.
fn parse(side: Side, record: &Record<'_>) -> Result<Event, DiffError> {
    record
        .event()
        .map_err(|(line, msg)| DiffError { side, line, msg })
}

/// The records at positions `first..end` of `trace`, rendered for
/// printing; a JSONL line that does not parse is shown as written.
fn window(trace: &LoadedTrace, first: usize, end: usize) -> Vec<(usize, String)> {
    let render = |r: &Record<'_>| match r.event() {
        Ok(ev) => ev.to_json(),
        Err(_) => String::from_utf8_lossy(r.raw()).into_owned(),
    };
    let records = trace.records().skip(first).take(end - first);
    records.map(|r| (r.line(), render(&r))).collect()
}

/// An event's CMVB payload: equal payloads are equal events.
fn payload(ev: &Event) -> Vec<u8> {
    let mut payload = Vec::new();
    ev.walk(&mut payload);
    payload
}

/// Field-by-field comparison of two same-kind events: A's fields, then
/// any only B has, each value spelled as the event's canonical line
/// ([`Event::to_json`]) spells it.
fn field_deltas(a: &Event, b: &Event) -> Vec<FieldDelta> {
    const ABSENT: &str = "<absent>";
    fn value<'a>(o: &Object<'a>, key: &str) -> Option<&'a str> {
        o.fields().find(|&(k, _)| k == key).map(|(_, v)| v)
    }
    let (a, b) = (a.to_json(), b.to_json());
    let parse = |line| Object::parse(line, "event").expect("the writer's own line parses");
    let (a, b) = (parse(&a), parse(&b));
    let delta = |field: &str, a: &str, b: &str| FieldDelta {
        field: field.to_string(),
        a: a.to_string(),
        b: b.to_string(),
    };
    let mut deltas = Vec::new();
    for (key, va) in a.fields() {
        match value(&b, key) {
            Some(vb) if vb == va => {}
            vb => deltas.push(delta(key, va, vb.unwrap_or(ABSENT))),
        }
    }
    for (key, vb) in b.fields() {
        if value(&a, key).is_none() {
            deltas.push(delta(key, ABSENT, vb));
        }
    }
    deltas
}

/// Compares two traces event by event and localizes the first
/// divergence; see the [module docs](self) for the taxonomy. `context` is
/// the ± window of surrounding events captured from each trace.
///
/// # Errors
///
/// Returns a [`DiffError`] for the first line of either input that does
/// not parse. Within one encoding an agreeing prefix is compared as bytes
/// and *not* parsed; parsing starts at the first byte difference.
pub fn diff_traces(
    a: &LoadedTrace,
    b: &LoadedTrace,
    context: usize,
) -> Result<DiffReport, DiffError> {
    let same_encoding = a.encoding == b.encoding;
    let (mut sa, mut sb) = (a.records().peekable(), b.records().peekable());
    // Both sides advance one record per step, so the `matched` records
    // consumed so far sit at the same positions in both traces.
    let mut matched = 0usize;
    let (line, ev_a, ev_b) = loop {
        match (sa.next(), sb.next()) {
            (None, None) => {
                return Ok(DiffReport {
                    matched,
                    divergence: None,
                })
            }
            (Some(ra), Some(rb)) => {
                // Within one encoding equal bytes are equal events.
                if !(same_encoding && ra.raw() == rb.raw()) {
                    let (ev_a, ev_b) = (parse(Side::A, &ra)?, parse(Side::B, &rb)?);
                    if ev_a != ev_b {
                        break (ra.line(), ev_a, ev_b);
                    }
                }
                matched += 1;
            }
            (ra, rb) => {
                let (longer, first, rest) = match ra {
                    Some(r) => (Side::A, r, sa.count()),
                    None => (Side::B, rb.expect("one side goes on"), sb.count()),
                };
                // The window shows the last `context + 1` shared events
                // and the first `context` extras of the longer side.
                let (from, to) = (matched.saturating_sub(context + 1), matched + context);
                return Ok(DiffReport {
                    matched,
                    divergence: Some(Divergence {
                        line: first.line(),
                        time: None,
                        kind: DivergenceKind::Truncated {
                            longer,
                            extra: 1 + rest,
                        },
                        context_a: window(a, from, to),
                        context_b: window(b, from, to),
                    }),
                });
            }
        }
    };
    let (t_a, t_b) = (ev_a.time(), ev_b.time());
    let mut kind = if ev_a.kind() == ev_b.kind() {
        DivergenceKind::PayloadDrift {
            kind: ev_a.kind().to_string(),
            fields: field_deltas(&ev_a, &ev_b),
        }
    } else {
        DivergenceKind::EventSet {
            a_kind: ev_a.kind().to_string(),
            b_kind: ev_b.kind().to_string(),
        }
    };
    if let (Some(t), true) = (t_a, t_a == t_b) {
        // Same time band on both sides: a permutation of the band is
        // reordering. The band prefix before this point agreed event for
        // event, so comparing band suffixes from here on is exact.
        let band = |side, first: Event, records: &mut std::iter::Peekable<_>| {
            let mut band = vec![first];
            while let Some(record) = records.peek() {
                let ev = parse(side, record)?;
                if ev.time() != Some(t) {
                    break;
                }
                records.next();
                band.push(ev);
            }
            Ok::<_, DiffError>(band)
        };
        let mut band_a = band(Side::A, ev_a, &mut sa)?;
        let mut band_b = band(Side::B, ev_b, &mut sb)?;
        band_a.sort_by_cached_key(payload);
        band_b.sort_by_cached_key(payload);
        if band_a == band_b {
            kind = DivergenceKind::Reordered {
                t,
                band_len: band_a.len(),
            };
        }
    }
    let (from, to) = (matched.saturating_sub(context), matched + context + 1);
    Ok(DiffReport {
        matched,
        divergence: Some(Divergence {
            line,
            time: t_a.or(t_b),
            kind,
            context_a: window(a, from, to),
            context_b: window(b, from, to),
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::MsgKind;

    /// Diffs two JSONL texts.
    fn diff(a: &str, b: &str, context: usize) -> Result<DiffReport, DiffError> {
        let load = |text: &str| crate::load_trace_bytes(text.as_bytes()).unwrap();
        diff_traces(&load(a), &load(b), context)
    }

    const BASE: &str = "{\"ev\":\"fleet_provisioned\",\"t\":0,\"vehicles\":4,\"capacity\":10}\n\
        {\"ev\":\"job_arrived\",\"t\":1,\"seq\":0,\"pos\":[0,0]}\n\
        {\"ev\":\"job_served\",\"t\":1,\"seq\":0,\"vehicle\":2,\"cost\":1}\n\
        {\"ev\":\"job_arrived\",\"t\":2,\"seq\":1,\"pos\":[1,0]}\n\
        {\"ev\":\"job_served\",\"t\":2,\"seq\":1,\"vehicle\":3,\"cost\":1}\n";

    #[test]
    fn identical_traces_report_identical() {
        let report = diff(BASE, BASE, 3).unwrap();
        assert!(report.is_identical());
        assert_eq!(report.matched, 5);
    }

    #[test]
    fn payload_drift_names_line_round_and_fields() {
        let mutated = BASE.replace("\"vehicle\":2", "\"vehicle\":9");
        let report = diff(BASE, &mutated, 2).unwrap();
        let d = report.divergence.unwrap();
        assert_eq!(d.line, 3);
        assert_eq!(d.time, Some(1));
        assert_eq!(report.matched, 2);
        match &d.kind {
            DivergenceKind::PayloadDrift { kind, fields } => {
                assert_eq!(kind, "job_served");
                assert_eq!(fields.len(), 1);
                assert_eq!(fields[0].field, "vehicle");
                assert_eq!(fields[0].a, "2");
                assert_eq!(fields[0].b, "9");
            }
            other => panic!("expected payload drift, got {other:?}"),
        }
        // Context covers the divergence line plus the window each way.
        assert!(d.context_a.iter().any(|(n, _)| *n == 3));
        assert!(d.context_a.iter().any(|(n, _)| *n == 1));
        assert!(d.context_b.iter().any(|(n, _)| *n == 5));
    }

    #[test]
    fn reordering_within_a_time_band_is_distinguished() {
        // Swap the two t=1 events of the band (arrival before serve is
        // not checked here — the diff only compares the streams).
        let swapped = "{\"ev\":\"fleet_provisioned\",\"t\":0,\"vehicles\":4,\"capacity\":10}\n\
            {\"ev\":\"job_served\",\"t\":1,\"seq\":0,\"vehicle\":2,\"cost\":1}\n\
            {\"ev\":\"job_arrived\",\"t\":1,\"seq\":0,\"pos\":[0,0]}\n\
            {\"ev\":\"job_arrived\",\"t\":2,\"seq\":1,\"pos\":[1,0]}\n\
            {\"ev\":\"job_served\",\"t\":2,\"seq\":1,\"vehicle\":3,\"cost\":1}\n";
        let report = diff(BASE, swapped, 1).unwrap();
        let d = report.divergence.unwrap();
        assert_eq!(d.line, 2);
        assert_eq!(d.time, Some(1));
        match d.kind {
            DivergenceKind::Reordered { t, band_len } => {
                assert_eq!(t, 1);
                assert_eq!(band_len, 2);
            }
            other => panic!("expected reordering, got {other:?}"),
        }
    }

    #[test]
    fn different_events_are_an_event_set_divergence() {
        let changed = BASE.replace(
            "{\"ev\":\"job_served\",\"t\":1,\"seq\":0,\"vehicle\":2,\"cost\":1}",
            "{\"ev\":\"process_crashed\",\"t\":1,\"proc\":2}",
        );
        let report = diff(BASE, &changed, 1).unwrap();
        let d = report.divergence.unwrap();
        match d.kind {
            DivergenceKind::EventSet { a_kind, b_kind } => {
                assert_eq!(a_kind, "job_served");
                assert_eq!(b_kind, "process_crashed");
            }
            other => panic!("expected event-set divergence, got {other:?}"),
        }
    }

    #[test]
    fn truncation_names_the_longer_side_and_extra_count() {
        let short: String = BASE.lines().take(3).map(|l| format!("{l}\n")).collect();
        let report = diff(&short, BASE, 2).unwrap();
        let d = report.divergence.unwrap();
        assert_eq!(d.line, 4);
        match d.kind {
            DivergenceKind::Truncated { longer, extra } => {
                assert_eq!(longer, Side::B);
                assert_eq!(extra, 2);
            }
            other => panic!("expected truncation, got {other:?}"),
        }
        assert_eq!(report.matched, 3);
        // The longer side's window shows what the shorter side lacks.
        assert!(d.context_b.iter().any(|(n, _)| *n == 4));
        assert!(d.context_b.iter().any(|(n, _)| *n == 5));
    }

    #[test]
    fn same_kind_different_band_is_payload_drift_on_t() {
        let shifted = BASE.replace(
            "{\"ev\":\"job_arrived\",\"t\":2,\"seq\":1,\"pos\":[1,0]}",
            "{\"ev\":\"job_arrived\",\"t\":3,\"seq\":1,\"pos\":[1,0]}",
        );
        let report = diff(BASE, &shifted, 1).unwrap();
        let d = report.divergence.unwrap();
        match &d.kind {
            DivergenceKind::PayloadDrift { fields, .. } => {
                assert_eq!(fields.len(), 1);
                assert_eq!(fields[0].field, "t");
            }
            other => panic!("expected payload drift, got {other:?}"),
        }
    }

    #[test]
    fn unparseable_divergent_line_is_a_scoped_error() {
        let broken = BASE.replace(
            "{\"ev\":\"job_served\",\"t\":1,\"seq\":0,\"vehicle\":2,\"cost\":1}",
            "not json at all",
        );
        let e = diff(BASE, &broken, 1).unwrap_err();
        assert_eq!(e.side, Side::B);
        assert_eq!(e.line, 3);
    }

    #[test]
    fn blank_lines_are_skipped_but_numbering_is_kept() {
        let padded = BASE.replace(
            "{\"ev\":\"job_arrived\",\"t\":1,\"seq\":0,\"pos\":[0,0]}\n",
            "{\"ev\":\"job_arrived\",\"t\":1,\"seq\":0,\"pos\":[0,0]}\n\n",
        );
        // Same event sequence, one blank line inserted: still identical.
        let report = diff(BASE, &padded, 1).unwrap();
        assert!(report.is_identical());
        // A mutation after the blank line reports the *physical* line.
        let mutated = padded.replace("\"vehicle\":2", "\"vehicle\":9");
        let report = diff(BASE, &mutated, 1).unwrap();
        let d = report.divergence.unwrap();
        assert_eq!(d.line, 3); // line number in trace A
        assert!(d.context_b.iter().any(|(n, _)| *n == 4)); // physical in B
    }

    #[test]
    fn equal_events_are_identical_whatever_their_spelling() {
        // Spaces after ':' and ',', another key order, and an unknown key.
        let respelled = BASE
            .replace(
                "\"t\":1,\"seq\":0,\"pos\":[0,0]",
                "\"seq\": 0, \"t\": 1, \"pos\": [0, 0], \"x\": 7",
            )
            .replace(":10}", ": 10 }");
        assert_ne!(respelled, BASE);
        let report = diff(BASE, &respelled, 1).unwrap();
        assert!(report.is_identical(), "{report:?}");
        assert_eq!(report.matched, 5);
        // A real change after the re-spelled line is still found, and the
        // context shows the re-spelled line in canonical form.
        let mutated = respelled.replace("\"vehicle\":2", "\"vehicle\":9");
        let d = diff(BASE, &mutated, 1).unwrap().divergence.unwrap();
        assert_eq!(d.line, 3);
        assert_eq!(
            d.context_b[0],
            (2, BASE.lines().nth(1).unwrap().trim().to_string())
        );
    }

    #[test]
    fn field_deltas_spell_values_as_the_writer_does() {
        let a = Event::PhaseSpan {
            name: "a,\"b[".into(),
            start_ns: 3,
            end_ns: 9,
        };
        let b = Event::PhaseSpan {
            name: "a,\"c[".into(),
            start_ns: 3,
            end_ns: 8,
        };
        let delta = |field: &str, a: &str, b: &str| FieldDelta {
            field: field.into(),
            a: a.into(),
            b: b.into(),
        };
        assert_eq!(
            field_deltas(&a, &b),
            vec![
                delta("name", "\"a,\\\"b[\"", "\"a,\\\"c[\""),
                delta("end_ns", "9", "8"),
            ]
        );
        // An unclassified message has no `kind` at all.
        let sent = |kind| Event::MsgSent {
            t: 1,
            from: 0,
            to: 1,
            kind,
        };
        assert_eq!(
            field_deltas(&sent(None), &sent(Some(MsgKind::Query))),
            vec![delta("kind", "<absent>", "\"query\"")]
        );
    }
}
