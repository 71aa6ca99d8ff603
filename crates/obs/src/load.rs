//! Encoding-sniffing trace loader shared by every trace consumer.
//!
//! A trace file on disk is either JSONL (the canonical schema in the
//! [crate docs](crate)) or the CMVB binary frame format ([`crate::bin`]).
//! [`load_trace`] reads a file, sniffs the magic bytes, and normalizes
//! both to canonical JSONL text plus a small identity header (encoding,
//! schema version, event count) so forensic reports can name their input.
//!
//! The loader is where the file-shaped edge cases are caught once, for
//! everyone: an empty file, a file shorter than the binary magic, and a
//! JSONL file whose last line was truncated mid-write all come back as
//! scoped error messages — never panics, and never a silently misparsed
//! trace.

use crate::bin::{is_binary_trace, BinReader, BIN_MAGIC};
use crate::event::Event;

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

/// A trace normalized to canonical JSONL, whichever encoding it was in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadedTrace {
    /// Canonical JSONL text (one event per line, trailing newline).
    pub text: String,
    /// The encoding the file was found in.
    pub encoding: TraceEncoding,
    /// Schema version: the binary header's version byte, or
    /// [`JSONL_SCHEMA_VERSION`] for JSONL input.
    pub version: u8,
    /// Number of events (frames, or non-blank lines).
    pub events: usize,
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
}

/// Sniffs and normalizes in-memory trace bytes. See [`load_trace`] for the
/// file-path variant; errors here carry no path prefix.
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
    if bytes.is_empty() {
        return Err("empty file (0 bytes): not a trace in either encoding \
             (JSONL traces have one event per line, binary traces open \
             with the CMVB magic)"
            .to_string());
    }
    if bytes.len() < BIN_MAGIC.len() && BIN_MAGIC.starts_with(bytes) {
        return Err(format!(
            "file is {} byte(s), shorter than the {}-byte CMVB magic it \
             begins with: truncated binary trace",
            bytes.len(),
            BIN_MAGIC.len()
        ));
    }
    if is_binary_trace(bytes) {
        let version = bytes.get(4).copied().unwrap_or(0);
        // One frame at a time: the text is the only copy of the trace.
        let mut text = String::new();
        let mut events = 0;
        for ev in BinReader::open(bytes).map_err(|e| e.to_string())? {
            ev.map_err(|e| e.to_string())?.append_json(&mut text);
            text.push('\n');
            events += 1;
        }
        return Ok(LoadedTrace {
            text,
            encoding: TraceEncoding::Binary,
            version,
            events,
        });
    }
    let text = std::str::from_utf8(bytes)
        .map_err(|e| format!("not UTF-8 JSONL (and no CMVB magic): {e}"))?;
    // A JSONL writer terminates every line; a final line with no newline
    // is suspect, and if it does not even parse it was cut off mid-write.
    let mut text = text.to_string();
    if !text.ends_with('\n') {
        let last_no = text.lines().count();
        let last = text.lines().last().unwrap_or("");
        if let Err(e) = Event::from_json(last) {
            return Err(format!(
                "line {last_no}: trailing partial line (no newline and \
                 unparseable — truncated write?): {e}"
            ));
        }
        text.push('\n');
    }
    let events = text.lines().filter(|l| !l.trim().is_empty()).count();
    Ok(LoadedTrace {
        text,
        encoding: TraceEncoding::Jsonl,
        version: JSONL_SCHEMA_VERSION,
        events,
    })
}

/// Reads and normalizes a trace file; errors are prefixed with `path`.
///
/// # Errors
///
/// I/O failures plus everything [`load_trace_bytes`] rejects.
pub fn load_trace(path: &str) -> Result<LoadedTrace, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    load_trace_bytes(&bytes).map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::Sink;

    #[test]
    fn jsonl_roundtrip_with_header() {
        let text = "{\"ev\":\"job_arrived\",\"t\":1,\"seq\":0,\"pos\":[0,0]}\n";
        let loaded = load_trace_bytes(text.as_bytes()).unwrap();
        assert_eq!(loaded.encoding, TraceEncoding::Jsonl);
        assert_eq!(loaded.events, 1);
        assert_eq!(loaded.text, text);
        assert_eq!(loaded.header(), "encoding JSONL, schema v2, 1 events");
    }

    #[test]
    fn binary_decodes_to_canonical_jsonl() {
        let ev = Event::JobArrived {
            t: 1,
            seq: 0,
            pos: vec![3, -4],
        };
        let mut sink = crate::bin::BinSink::new(Vec::new());
        sink.record(&ev);
        let bytes = sink.into_writer().unwrap();
        let loaded = load_trace_bytes(&bytes).unwrap();
        assert_eq!(loaded.encoding, TraceEncoding::Binary);
        assert_eq!(loaded.version, crate::bin::BIN_VERSION);
        assert_eq!(loaded.events, 1);
        assert_eq!(loaded.text, format!("{}\n", ev.to_json()));
        assert!(loaded.header().contains("CMVB"));
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
