//! The one trace reader every trace consumer goes through.
//!
//! A trace file on disk is either JSONL (the canonical schema in the
//! [crate docs](crate)) or the CMVB binary frame format ([`crate::bin`]).
//! [`load_trace`] sniffs the magic bytes and keeps the file's bytes with an
//! identity header (encoding, schema version, event count).
//! [`LoadedTrace::events`] reads the events from the start, as often as a
//! consumer needs a pass, each with its JSONL line or CMVB frame number.
//! The bytes are the only whole-trace buffer.
//!
//! The loader is where the file-shaped edge cases are caught once, for
//! everyone: an empty file, a file shorter than the binary magic, a JSONL
//! file whose last line was truncated mid-write, and any corrupt CMVB
//! frame all come back as scoped error messages — never panics, and never
//! a silently misparsed trace. A JSONL line that does not parse is an
//! error of the pass that reads it, numbered by its line.

use crate::bin::{is_binary_trace, BinReader, BIN_MAGIC, BIN_VERSION};
use crate::event::Event;
use crate::frame::Cursor;
use std::collections::{BTreeMap, BTreeSet};

/// The JSONL schema generation this build writes (v2 added the
/// `replacement_cycle.dist` field; v1 traces still parse).
pub const JSONL_SCHEMA_VERSION: u8 = 2;

/// Which on-disk encoding a trace was found in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEncoding {
    /// One flat JSON object per line.
    Jsonl,
    /// CMVB length-prefixed binary frames.
    Binary,
}

impl TraceEncoding {
    /// Display name used in report headers.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceEncoding::Jsonl => "JSONL",
            TraceEncoding::Binary => "CMVB",
        }
    }
}

/// A trace file's bytes and identity, whichever encoding it is in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadedTrace {
    /// The file's bytes: UTF-8 JSONL, or CMVB whose every frame decodes.
    bytes: Vec<u8>,
    /// The encoding the file was found in.
    pub encoding: TraceEncoding,
    /// Schema version: the binary header's version byte, or
    /// [`JSONL_SCHEMA_VERSION`] for JSONL input.
    pub version: u8,
    /// Number of events (frames, or non-blank lines).
    pub events: usize,
}

/// One event as its trace encodes it: a non-blank JSONL line or a CMVB
/// frame payload, with its 1-based line or frame number.
#[derive(Debug, Clone)]
pub(crate) enum Record<'a> {
    Line(usize, &'a str),
    Frame(usize, Cursor<'a>),
}

impl<'a> Record<'a> {
    /// The record's 1-based line (JSONL) or frame (CMVB) number.
    pub(crate) fn line(&self) -> usize {
        match self {
            Record::Line(n, _) | Record::Frame(n, _) => *n,
        }
    }

    /// The encoded bytes. Within one encoding, equal bytes are equal
    /// events.
    pub(crate) fn raw(&self) -> &'a [u8] {
        match self {
            Record::Line(_, line) => line.as_bytes(),
            Record::Frame(_, frame) => frame.rest(),
        }
    }

    /// Decodes the event, or names the line and why it does not parse.
    pub(crate) fn event(&self) -> Result<Event, (usize, String)> {
        match self {
            Record::Line(_, line) => Event::from_json(line),
            Record::Frame(_, frame) => Event::read(&mut frame.clone()).map_err(|e| e.to_string()),
        }
        .map_err(|msg| (self.line(), msg))
    }
}

impl LoadedTrace {
    /// One-line identity header for forensic reports:
    /// `encoding JSONL, schema v2, 502 events`.
    pub fn header(&self) -> String {
        format!(
            "encoding {}, schema v{}, {} events",
            self.encoding.as_str(),
            self.version,
            self.events
        )
    }

    /// The trace's records from the start; every call is a new pass.
    pub(crate) fn records(&self) -> Box<dyn Iterator<Item = Record<'_>> + '_> {
        if self.encoding == TraceEncoding::Jsonl {
            let lines = std::str::from_utf8(&self.bytes).unwrap_or_default().lines();
            let events = (1..).zip(lines).filter(|(_, line)| !line.trim().is_empty());
            return Box::new(events.map(|(n, line)| Record::Line(n, line)));
        }
        // Every frame decoded at load, so neither the header nor the
        // framing can fail here.
        let mut frames = Cursor::open(&self.bytes, BIN_MAGIC, BIN_VERSION).ok();
        let frames = std::iter::from_fn(move || frames.as_mut()?.next_frame()?.ok());
        Box::new((1..).zip(frames).map(|(n, frame)| Record::Frame(n, frame)))
    }

    /// Every event from the start, each with its 1-based JSONL line (blank
    /// lines are skipped but counted) or CMVB frame number.
    ///
    /// # Errors
    ///
    /// An item is `Err((line number, parse error))` for a JSONL line that
    /// does not parse; a CMVB trace decoded whole at load.
    pub fn events(&self) -> impl Iterator<Item = Result<(usize, Event), (usize, String)>> + '_ {
        self.records().map(|r| Ok((r.line(), r.event()?)))
    }

    /// The canonical JSON of the events on `lines`, by line, for printing:
    /// a pass that decodes only those events.
    ///
    /// # Errors
    ///
    /// `(line number, parse error)` when one of those lines does not
    /// parse.
    pub fn render(
        &self,
        lines: impl IntoIterator<Item = usize>,
    ) -> Result<BTreeMap<usize, String>, (usize, String)> {
        let wanted: BTreeSet<usize> = lines.into_iter().collect();
        let last = wanted.last().copied().unwrap_or(0);
        self.records()
            .take_while(|r| r.line() <= last)
            .filter(|r| wanted.contains(&r.line()))
            .map(|r| Ok((r.line(), r.event()?.to_json())))
            .collect()
    }
}

/// Sniffs in-memory trace bytes and checks what can be checked without
/// reading the events one by one. See [`load_trace`] for the file-path
/// variant; errors here carry no path prefix.
///
/// # Errors
///
/// A message naming what is wrong with the input:
///
/// - an empty input (nothing to sniff);
/// - a strict prefix of the binary magic/header (a truncated binary
///   trace, which must not be misread as JSONL);
/// - a corrupt binary trace (the underlying [`crate::FrameError`], with
///   frame and byte offset);
/// - non-UTF-8 bytes without the binary magic;
/// - a JSONL input whose final line is unterminated *and* unparseable —
///   the signature of a write cut off mid-line. (A parseable final line
///   merely missing its newline is accepted.)
pub fn load_trace_bytes(bytes: &[u8]) -> Result<LoadedTrace, String> {
    trace_of(bytes.to_vec())
}

/// [`load_trace_bytes`] over bytes it owns.
fn trace_of(bytes: Vec<u8>) -> Result<LoadedTrace, String> {
    if bytes.is_empty() {
        return Err("empty file (0 bytes): not a trace in either encoding \
             (JSONL traces have one event per line, binary traces open \
             with the CMVB magic)"
            .to_string());
    }
    if bytes.len() < BIN_MAGIC.len() && BIN_MAGIC.starts_with(&bytes) {
        return Err(format!(
            "file is {} byte(s), shorter than the {}-byte CMVB magic it \
             begins with: truncated binary trace",
            bytes.len(),
            BIN_MAGIC.len()
        ));
    }
    if is_binary_trace(&bytes) {
        // Decoded whole once, so every later pass reads a sound trace.
        let events = BinReader::open(&bytes)
            .and_then(|mut frames| frames.try_fold(0, |n, ev| ev.map(|_| n + 1)))
            .map_err(|e| e.to_string())?;
        return Ok(LoadedTrace {
            version: bytes[4],
            bytes,
            encoding: TraceEncoding::Binary,
            events,
        });
    }
    let text = std::str::from_utf8(&bytes)
        .map_err(|e| format!("not UTF-8 JSONL (and no CMVB magic): {e}"))?;
    // A JSONL writer terminates every line; a final line with no newline
    // is suspect, and if it does not even parse it was cut off mid-write.
    if !text.ends_with('\n') {
        let last_no = text.lines().count();
        let last = text.lines().last().unwrap_or("");
        if let Err(e) = Event::from_json(last) {
            return Err(format!(
                "line {last_no}: trailing partial line (no newline and \
                 unparseable — truncated write?): {e}"
            ));
        }
    }
    let events = text.lines().filter(|l| !l.trim().is_empty()).count();
    Ok(LoadedTrace {
        bytes,
        encoding: TraceEncoding::Jsonl,
        version: JSONL_SCHEMA_VERSION,
        events,
    })
}

/// Reads and sniffs a trace file; errors are prefixed with `path`.
///
/// # Errors
///
/// I/O failures plus everything [`load_trace_bytes`] rejects.
pub fn load_trace(path: &str) -> Result<LoadedTrace, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    trace_of(bytes).map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::Sink;

    fn events(trace: &LoadedTrace) -> Vec<(usize, Event)> {
        trace.events().collect::<Result<_, _>>().unwrap()
    }

    #[test]
    fn jsonl_reads_with_header() {
        let text = "{\"ev\":\"job_arrived\",\"t\":1,\"seq\":0,\"pos\":[0,0]}\n";
        let loaded = load_trace_bytes(text.as_bytes()).unwrap();
        assert_eq!(loaded.encoding, TraceEncoding::Jsonl);
        assert_eq!(loaded.events, 1);
        assert_eq!(events(&loaded), vec![(1, Event::from_json(text).unwrap())]);
        assert_eq!(loaded.header(), "encoding JSONL, schema v2, 1 events");
    }

    #[test]
    fn binary_yields_frames_numbered_like_lines() {
        let ev = Event::JobArrived {
            t: 1,
            seq: 0,
            pos: vec![3, -4],
        };
        let mut sink = crate::bin::BinSink::new(Vec::new());
        sink.record(&ev);
        sink.record(&ev);
        let bytes = sink.into_writer().unwrap();
        let loaded = load_trace_bytes(&bytes).unwrap();
        assert_eq!(loaded.encoding, TraceEncoding::Binary);
        assert_eq!(loaded.version, crate::bin::BIN_VERSION);
        assert_eq!(loaded.events, 2);
        assert_eq!(events(&loaded), vec![(1, ev.clone()), (2, ev.clone())]);
        // A second pass starts over.
        assert_eq!(loaded.events().count(), 2);
        assert!(loaded.header().contains("CMVB"));
        let rendered = loaded.render([2, 7]).unwrap();
        assert_eq!(
            rendered.into_iter().collect::<Vec<_>>(),
            [(2, ev.to_json())]
        );
    }

    #[test]
    fn events_number_physical_lines() {
        let text = "{\"ev\":\"process_crashed\",\"t\":1,\"proc\":2}\n\n  \nnot json\n";
        let items: Vec<_> = load_trace_bytes(text.as_bytes())
            .unwrap()
            .events()
            .collect();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0], Ok((1, Event::ProcessCrashed { t: 1, proc: 2 })));
        assert_eq!(items[1].clone().unwrap_err().0, 4);
    }

    #[test]
    fn render_prints_canonical_json_and_names_a_bad_line() {
        let text = "{ \"ev\": \"process_crashed\", \"proc\": 2, \"t\": 1, \"x\": 0 }\n\nnope\n";
        let loaded = load_trace_bytes(text.as_bytes()).unwrap();
        let rendered = loaded.render([1]).unwrap();
        assert_eq!(
            rendered[&1],
            "{\"ev\":\"process_crashed\",\"t\":1,\"proc\":2}"
        );
        assert_eq!(loaded.render([3]).unwrap_err().0, 3);
        assert_eq!(loaded.events().nth(1).unwrap().unwrap_err().0, 3);
    }

    #[test]
    fn empty_file_is_a_scoped_error() {
        let e = load_trace_bytes(b"").unwrap_err();
        assert!(e.contains("empty file"), "{e}");
    }

    #[test]
    fn magic_prefix_shorter_than_magic_is_a_scoped_error() {
        for n in 1..BIN_MAGIC.len() {
            let e = load_trace_bytes(&BIN_MAGIC[..n]).unwrap_err();
            assert!(e.contains("truncated binary trace"), "{n}: {e}");
        }
    }

    #[test]
    fn trailing_partial_line_is_a_scoped_error() {
        // Two good lines, then a write cut off mid-object.
        let text = "{\"ev\":\"job_arrived\",\"t\":1,\"seq\":0,\"pos\":[0,0]}\n\
                    {\"ev\":\"job_served\",\"t\":1,\"seq\":0,\"vehicle\":2,\"cost\":1}\n\
                    {\"ev\":\"job_arr";
        let e = load_trace_bytes(text.as_bytes()).unwrap_err();
        assert!(e.contains("line 3"), "{e}");
        assert!(e.contains("partial"), "{e}");
    }

    #[test]
    fn complete_final_line_without_newline_is_accepted() {
        let text = "{\"ev\":\"job_arrived\",\"t\":1,\"seq\":0,\"pos\":[0,0]}";
        let loaded = load_trace_bytes(text.as_bytes()).unwrap();
        assert_eq!(loaded.events, 1);
        assert_eq!(events(&loaded).len(), 1);
    }

    #[test]
    fn non_utf8_is_a_scoped_error() {
        let e = load_trace_bytes(&[0xff, 0xfe, 0x00, 0x01]).unwrap_err();
        assert!(e.contains("UTF-8"), "{e}");
    }

    #[test]
    fn corrupt_binary_carries_frame_and_offset() {
        let mut sink = crate::bin::BinSink::new(Vec::new());
        sink.record(&Event::ProcessCrashed { t: 1, proc: 2 });
        let mut bytes = sink.into_writer().unwrap();
        bytes.truncate(bytes.len() - 1); // cut the last payload byte
        let e = load_trace_bytes(&bytes).unwrap_err();
        assert!(e.contains("frame 1"), "{e}");
    }

    #[test]
    fn load_trace_prefixes_path() {
        let e = load_trace("/nonexistent/trace.jsonl").unwrap_err();
        assert!(e.contains("/nonexistent/trace.jsonl"), "{e}");
    }
}
