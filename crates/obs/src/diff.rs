//! Semantic trace diff: localize the *first divergence* between two runs.
//!
//! The engine's headline guarantee is a canonical `(time, shard, seq)`
//! merged trace, byte-identical across every (workers × checked)
//! combination. When that breaks — or when two runs of the same
//! instance are compared on purpose — a byte-level `cmp` only says *that*
//! they differ. [`diff_lines`] says *where* (line/frame number and the
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
//! The comparison is lockstep and streaming: memory is O(context window
//! plus current time band), never O(trace). Both inputs are canonical JSONL
//! text — the sniffing loader ([`crate::load`]) already normalizes binary
//! traces, so line numbers here are frame numbers there.

use crate::event::Event;
use crate::json::Object;
use std::collections::VecDeque;
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
    /// Raw JSON value in trace A (`"<absent>"` when missing).
    pub a: String,
    /// Raw JSON value in trace B.
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

/// Outcome of a [`diff_lines`] run.
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

/// One side's stream state: numbered non-blank lines, a ring buffer of
/// recently consumed lines, one-line lookahead, and a bounded after-mark
/// log for context-window capture.
struct Stream<'a, I: Iterator<Item = &'a str>> {
    lines: std::iter::Enumerate<I>,
    peeked: Option<(usize, &'a str)>,
    /// Recently consumed lines, oldest first (bounded by `context + 1`).
    recent: VecDeque<(usize, &'a str)>,
    /// Snapshot of `recent` at [`Stream::mark`] — the "before" half of
    /// the context window, ending with the divergence line.
    pre: Vec<(usize, &'a str)>,
    /// The first `context` lines consumed after the mark.
    log: Vec<(usize, &'a str)>,
    logging: bool,
    context: usize,
    side: Side,
}

impl<'a, I: Iterator<Item = &'a str>> Stream<'a, I> {
    fn new(lines: I, context: usize, side: Side) -> Self {
        Stream {
            lines: lines.enumerate(),
            peeked: None,
            recent: VecDeque::with_capacity(context + 2),
            pre: Vec::new(),
            log: Vec::new(),
            logging: false,
            context,
            side,
        }
    }

    /// The next non-blank line without consuming it.
    fn peek(&mut self) -> Option<(usize, &'a str)> {
        if self.peeked.is_none() {
            for (i, line) in self.lines.by_ref() {
                if !line.trim().is_empty() {
                    self.peeked = Some((i + 1, line));
                    break;
                }
            }
        }
        self.peeked
    }

    /// Consumes the next non-blank line, remembering it for context.
    fn next_line(&mut self) -> Option<(usize, &'a str)> {
        let item = self.peek()?;
        self.peeked = None;
        if self.recent.len() > self.context {
            self.recent.pop_front();
        }
        self.recent.push_back(item);
        if self.logging && self.log.len() < self.context {
            self.log.push(item);
        }
        Some(item)
    }

    /// Reads a line as an object (for field-level reports) and an event.
    fn parse(&self, item: (usize, &'a str)) -> Result<(Object<'a>, Event), DiffError> {
        let scoped = |msg| DiffError {
            side: self.side,
            line: item.0,
            msg,
        };
        let object = Object::parse(item.1, "event").map_err(scoped)?;
        let event = Event::from_object(&object).map_err(scoped)?;
        Ok((object, event))
    }

    /// Anchors the context window here: everything consumed so far (up to
    /// `context + 1` lines, ending with the just-consumed divergence
    /// line) is the "before" half; the next `context` consumed lines
    /// become the "after" half, however they are consumed.
    fn mark(&mut self) {
        self.pre = self.recent.iter().copied().collect();
        self.log.clear();
        self.logging = true;
    }

    /// Completes the window started by [`Stream::mark`], pulling more
    /// lines if classification consumed fewer than `context` of them.
    fn take_window(&mut self) -> Vec<(usize, String)> {
        while self.log.len() < self.context && self.next_line().is_some() {}
        self.logging = false;
        self.pre
            .iter()
            .chain(self.log.iter())
            .map(|(n, l)| (*n, (*l).to_string()))
            .collect()
    }

    /// Consumes every immediately following event in time band `t`,
    /// returning their texts (`seed`, the already-consumed divergence
    /// line, leads the band).
    fn drain_band(&mut self, t: u64, seed: &'a str) -> Result<Vec<&'a str>, DiffError> {
        let mut band = vec![seed];
        while let Some(item) = self.peek() {
            let (_, ev) = self.parse(item)?;
            if ev.time() == Some(t) {
                self.next_line();
                band.push(item.1);
            } else {
                break;
            }
        }
        Ok(band)
    }
}

/// The exact spelling of `key`'s value in `o`.
fn raw_value<'a>(o: &Object<'a>, key: &str) -> Option<&'a str> {
    o.fields().find(|&(k, _)| k == key).map(|(_, v)| v)
}

/// Field-by-field comparison of two same-kind events, each value in its
/// exact spelling so the report shows what the traces show.
fn field_deltas(a: &Object<'_>, b: &Object<'_>) -> Vec<FieldDelta> {
    const ABSENT: &str = "<absent>";
    let delta = |field: &str, a: &str, b: &str| FieldDelta {
        field: field.to_string(),
        a: a.to_string(),
        b: b.to_string(),
    };
    let mut deltas = Vec::new();
    for (key, va) in a.fields() {
        match raw_value(b, key) {
            Some(vb) if vb == va => {}
            vb => deltas.push(delta(key, va, vb.unwrap_or(ABSENT))),
        }
    }
    for (key, vb) in b.fields() {
        if raw_value(a, key).is_none() {
            deltas.push(delta(key, ABSENT, vb));
        }
    }
    deltas
}

/// Compares two canonical JSONL event streams lockstep and localizes the
/// first divergence; see the [module docs](self) for the taxonomy.
/// `context` is the ± window of surrounding lines captured from each
/// trace (memory stays O(context + band)).
///
/// # Errors
///
/// Returns a [`DiffError`] for the first unparseable line of either
/// input. Byte-identical prefixes are *not* parsed (the fast path is a
/// string compare); parsing starts at the first textual difference.
pub fn diff_lines<'a, A, B>(a: A, b: B, context: usize) -> Result<DiffReport, DiffError>
where
    A: Iterator<Item = &'a str>,
    B: Iterator<Item = &'a str>,
{
    let mut sa = Stream::new(a, context, Side::A);
    let mut sb = Stream::new(b, context, Side::B);
    let mut matched = 0usize;
    loop {
        match (sa.peek(), sb.peek()) {
            (None, None) => {
                return Ok(DiffReport {
                    matched,
                    divergence: None,
                })
            }
            (Some(_), None) | (None, Some(_)) => {
                let (longer, line) = match sa.peek() {
                    Some((n, _)) => (Side::A, n),
                    None => (Side::B, sb.peek().expect("one side non-empty").0),
                };
                sa.mark();
                sb.mark();
                // Drain the longer side to count the extras; the first
                // `context` of them land in its window log.
                let mut extra = 0usize;
                loop {
                    let more = match longer {
                        Side::A => sa.next_line().is_some(),
                        Side::B => sb.next_line().is_some(),
                    };
                    if !more {
                        break;
                    }
                    extra += 1;
                }
                return Ok(DiffReport {
                    matched,
                    divergence: Some(Divergence {
                        line,
                        time: None,
                        kind: DivergenceKind::Truncated { longer, extra },
                        context_a: sa.take_window(),
                        context_b: sb.take_window(),
                    }),
                });
            }
            (Some((la, ta)), Some((lb, tb))) => {
                if ta == tb {
                    sa.next_line();
                    sb.next_line();
                    matched += 1;
                    continue;
                }
                // First textual difference: parse both sides, anchor the
                // context windows at the diverging lines, and classify.
                let (obj_a, ev_a) = sa.parse((la, ta))?;
                let (obj_b, ev_b) = sb.parse((lb, tb))?;
                sa.next_line();
                sb.next_line();
                sa.mark();
                sb.mark();
                let (t_a, t_b) = (ev_a.time(), ev_b.time());
                let time = t_a.or(t_b);
                let kind = if let (Some(t), true) = (t_a, t_a == t_b) {
                    // Same time band on both sides: a permutation of the
                    // band is reordering, anything else falls through.
                    // The band prefix before this point matched byte for
                    // byte, so comparing band suffixes from here on is
                    // exact.
                    let band_a = sa.drain_band(t, ta)?;
                    let band_b = sb.drain_band(t, tb)?;
                    let mut sorted_a = band_a.clone();
                    let mut sorted_b = band_b.clone();
                    sorted_a.sort_unstable();
                    sorted_b.sort_unstable();
                    if sorted_a == sorted_b {
                        Some(DivergenceKind::Reordered {
                            t,
                            band_len: band_a.len(),
                        })
                    } else {
                        None
                    }
                } else {
                    None
                };
                let kind = kind.unwrap_or_else(|| {
                    if ev_a.kind() == ev_b.kind() {
                        DivergenceKind::PayloadDrift {
                            kind: ev_a.kind().to_string(),
                            fields: field_deltas(&obj_a, &obj_b),
                        }
                    } else {
                        DivergenceKind::EventSet {
                            a_kind: ev_a.kind().to_string(),
                            b_kind: ev_b.kind().to_string(),
                        }
                    }
                });
                return Ok(DiffReport {
                    matched,
                    divergence: Some(Divergence {
                        line: la,
                        time,
                        kind,
                        context_a: sa.take_window(),
                        context_b: sb.take_window(),
                    }),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(text: &str) -> impl Iterator<Item = &str> {
        text.lines()
    }

    const BASE: &str = "{\"ev\":\"fleet_provisioned\",\"t\":0,\"vehicles\":4,\"capacity\":10}\n\
        {\"ev\":\"job_arrived\",\"t\":1,\"seq\":0,\"pos\":[0,0]}\n\
        {\"ev\":\"job_served\",\"t\":1,\"seq\":0,\"vehicle\":2,\"cost\":1}\n\
        {\"ev\":\"job_arrived\",\"t\":2,\"seq\":1,\"pos\":[1,0]}\n\
        {\"ev\":\"job_served\",\"t\":2,\"seq\":1,\"vehicle\":3,\"cost\":1}\n";

    #[test]
    fn identical_traces_report_identical() {
        let report = diff_lines(lines(BASE), lines(BASE), 3).unwrap();
        assert!(report.is_identical());
        assert_eq!(report.matched, 5);
    }

    #[test]
    fn payload_drift_names_line_round_and_fields() {
        let mutated = BASE.replace("\"vehicle\":2", "\"vehicle\":9");
        let report = diff_lines(lines(BASE), lines(&mutated), 2).unwrap();
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
        let report = diff_lines(lines(BASE), lines(swapped), 1).unwrap();
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
        let report = diff_lines(lines(BASE), lines(&changed), 1).unwrap();
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
        let report = diff_lines(lines(&short), lines(BASE), 2).unwrap();
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
        let report = diff_lines(lines(BASE), lines(&shifted), 1).unwrap();
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
        let e = diff_lines(lines(BASE), lines(&broken), 1).unwrap_err();
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
        let report = diff_lines(lines(BASE), lines(&padded), 1).unwrap();
        assert!(report.is_identical());
        // A mutation after the blank line reports the *physical* line.
        let mutated = padded.replace("\"vehicle\":2", "\"vehicle\":9");
        let report = diff_lines(lines(BASE), lines(&mutated), 1).unwrap();
        let d = report.divergence.unwrap();
        assert_eq!(d.line, 3); // line number in trace A
        assert!(d.context_b.iter().any(|(n, _)| *n == 4)); // physical in B
    }

    #[test]
    fn field_deltas_report_raw_spellings_of_strings_arrays_and_escapes() {
        let a = Object::parse(
            "{\"ev\":\"phase_span\",\"name\":\"a,\\\"b[\",\"pos\":[1,-2],\"t\":3}",
            "event",
        )
        .unwrap();
        let b = Object::parse(
            "{\"ev\":\"phase_span\",\"name\":\"a,\\\"c[\",\"pos\":[1,-2],\"u\":3}",
            "event",
        )
        .unwrap();
        let delta = |field: &str, a: &str, b: &str| FieldDelta {
            field: field.into(),
            a: a.into(),
            b: b.into(),
        };
        assert_eq!(
            field_deltas(&a, &b),
            vec![
                delta("name", "\"a,\\\"b[\"", "\"a,\\\"c[\""),
                delta("t", "3", "<absent>"),
                delta("u", "<absent>", "3"),
            ]
        );
    }
}
