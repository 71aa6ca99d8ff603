//! Binary trace format: the same [`Event`] vocabulary as the JSONL schema
//! in the length-prefixed frames of [`crate::frame`], under the magic
//! `CMVB`. Each frame holds one event:
//!
//! ```text
//! payload := tag (1 byte) | fields
//! ```
//!
//! The tag is the kind's one-based position in the declaration order of
//! [`Event`], and the fields follow in the order `Event::walk` hands them
//! out, the same order as the JSONL keys. This module holds only the CMVB
//! half of the event schema's writer/reader pair: unsigned integers and
//! process ids are varints, signed ones (position coordinates,
//! `round_profile` nanoseconds) zigzag varints, strings and positions
//! length-prefixed, and a drop reason, a `bool` and the optional message
//! `kind` one byte each (`kind` 0 = absent). The format is append-only in
//! the same sense as the JSONL schema, and an unknown tag is a hard error.
//!
//! [`BinSink`] is the write side — a [`Sink`] like [`crate::JsonlSink`]
//! but with no per-event allocation (one reusable scratch buffer) — and
//! [`BinReader`] the read side, one event per frame as it goes. The
//! reader's [`FrameError`]s carry the 1-based frame index and absolute
//! byte offset, and no truncated or corrupt input makes it panic.

use crate::event::{DropReason, Event, FieldReader, FieldWriter, MsgKind, KINDS};
use crate::frame::{self, put_i64, put_i64s, put_str, put_u64, Cursor, FrameError};
use crate::sink::{Sink, StaticSink};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// The four magic bytes opening every binary trace.
pub const BIN_MAGIC: [u8; 4] = *b"CMVB";

/// The format version this build writes and the highest it reads.
pub const BIN_VERSION: u8 = 1;

/// True when `bytes` begin with the binary-trace magic — the sniff used by
/// `cmvrp trace …` to accept either encoding transparently.
pub fn is_binary_trace(bytes: &[u8]) -> bool {
    bytes.starts_with(&BIN_MAGIC)
}

/// Streams events as binary frames to any writer.
///
/// The binary sibling of [`crate::JsonlSink`]: sticky I/O errors surfaced
/// by [`BinSink::finish`], and — the point of the format — no per-event
/// heap allocation: each event is encoded into one reusable scratch
/// buffer. The sink writes each frame straight into the writer it was
/// given, so a `Vec<u8>` holds every recorded frame the moment
/// [`Sink::record`] returns ([`BinSink::get_ref`] reads it while the sink
/// keeps recording); [`BinSink::create`] puts a `BufWriter` over its file.
#[derive(Debug)]
pub struct BinSink<W: Write> {
    writer: W,
    scratch: Vec<u8>,
    written: u64,
    error: Option<io::Error>,
}

impl BinSink<BufWriter<File>> {
    /// Creates (truncating) a binary trace file at `path`, buffered.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(BinSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> BinSink<W> {
    /// Takes an arbitrary writer and writes the magic + version header.
    pub fn new(writer: W) -> Self {
        let mut sink = BinSink {
            writer,
            scratch: Vec::with_capacity(64),
            written: 0,
            error: None,
        };
        if let Err(e) = sink
            .writer
            .write_all(&frame::header(BIN_MAGIC, BIN_VERSION))
        {
            sink.error = Some(e);
        }
        sink
    }

    /// Events successfully written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// The writer, holding every frame written so far (nothing is staged
    /// inside the sink).
    pub fn get_ref(&self) -> &W {
        &self.writer
    }

    /// Flushes and returns the event count, or the first I/O error.
    ///
    /// # Errors
    ///
    /// Returns the first error hit while writing or flushing.
    pub fn finish(mut self) -> io::Result<u64> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.writer.flush()?;
        Ok(self.written)
    }

    /// Flushes and returns the underlying writer (handy when writing to a
    /// `Vec<u8>` in tests).
    ///
    /// # Errors
    ///
    /// Returns the first error hit while writing or flushing.
    pub fn into_writer(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl<W: Write> Sink for BinSink<W> {
    fn record(&mut self, event: &Event) {
        if self.error.is_some() {
            return;
        }
        self.scratch.clear();
        event.walk(&mut self.scratch);
        // The length prefix is at most 10 varint bytes; stage it on the
        // stack so a frame is exactly two `write_all` calls.
        let mut prefix = [0u8; 10];
        let n = frame::varint(self.scratch.len() as u64, &mut prefix);
        let res = self
            .writer
            .write_all(&prefix[..n])
            .and_then(|()| self.writer.write_all(&self.scratch));
        match res {
            Ok(()) => self.written += 1,
            Err(e) => self.error = Some(e),
        }
    }

    fn flush_events(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.writer.flush() {
                self.error = Some(e);
            }
        }
    }
}

impl<W: Write> StaticSink for BinSink<W> {}

/// The CMVB payload writer: the tag byte, then each field in walk order;
/// the keys are not written.
impl FieldWriter for Vec<u8> {
    fn kind(&mut self, index: usize) {
        self.push(index as u8 + 1);
    }

    fn u64(&mut self, _key: &'static str, v: u64) {
        put_u64(self, v);
    }

    fn i64(&mut self, _key: &'static str, v: i64) {
        put_i64(self, v);
    }

    fn bool(&mut self, _key: &'static str, v: bool) {
        self.push(u8::from(v));
    }

    fn str(&mut self, _key: &'static str, v: &str) {
        put_str(self, v);
    }

    fn pos(&mut self, _key: &'static str, v: &[i64]) {
        put_i64s(self, v);
    }

    fn reason(&mut self, _key: &'static str, v: DropReason) {
        self.push(v as u8);
    }

    fn msg_kind(&mut self, _key: &'static str, v: Option<MsgKind>) {
        self.push(v.map_or(0, |k| k as u8 + 1));
    }
}

/// The CMVB payload reader: the fields in walk order. An error names the
/// frame and the offset just past the bad byte; trailing bytes are ignored
/// (append-only schema evolution, mirroring "readers must ignore unknown
/// fields").
impl FieldReader for Cursor<'_> {
    type Error = FrameError;

    fn kind(&mut self) -> Result<usize, FrameError> {
        match Cursor::u8(self)? {
            tag @ 1.. if usize::from(tag) <= KINDS.len() => Ok(usize::from(tag) - 1),
            other => Err(self.err(format!("unknown event tag {other}"))),
        }
    }

    fn u64(&mut self, _key: &str) -> Result<u64, FrameError> {
        Cursor::u64(self)
    }

    fn id(&mut self, _key: &str) -> Result<usize, FrameError> {
        Cursor::usize(self)
    }

    fn i64(&mut self, _key: &str) -> Result<i64, FrameError> {
        Cursor::i64(self)
    }

    fn bool(&mut self, _key: &str) -> Result<bool, FrameError> {
        Cursor::bool(self)
    }

    fn str(&mut self, _key: &str) -> Result<String, FrameError> {
        Cursor::str(self)
    }

    fn pos(&mut self, _key: &str) -> Result<Vec<i64>, FrameError> {
        self.i64s()
    }

    fn reason(&mut self, _key: &str) -> Result<DropReason, FrameError> {
        let code = Cursor::u8(self)?;
        DropReason::ALL
            .get(usize::from(code))
            .copied()
            .ok_or_else(|| self.err(format!("unknown drop-reason byte {code}")))
    }

    fn msg_kind(&mut self, _key: &str) -> Result<Option<MsgKind>, FrameError> {
        match Cursor::u8(self)? {
            0 => Ok(None),
            code => MsgKind::ALL
                .get(usize::from(code) - 1)
                .map(|k| Some(*k))
                .ok_or_else(|| self.err(format!("unknown msg-kind byte {code}"))),
        }
    }
}

/// Reads a binary trace one event at a time, so a consumer holds one
/// decoded event rather than the whole trace. The iterator stops after the
/// first error: past a corrupt frame no later frame boundary can be
/// trusted.
///
/// # Examples
///
/// ```
/// use cmvrp_obs::{BinReader, BinSink, Event, Sink};
///
/// let mut sink = BinSink::new(Vec::new());
/// sink.record(&Event::ProcessCrashed { t: 3, proc: 1 });
/// let mut lines = String::new();
/// for ev in BinReader::open(sink.get_ref()).unwrap() {
///     ev.unwrap().append_json(&mut lines);
/// }
/// assert_eq!(lines, r#"{"ev":"process_crashed","t":3,"proc":1}"#);
/// ```
#[derive(Debug, Clone)]
pub struct BinReader<'a> {
    frames: Cursor<'a>,
    failed: bool,
}

impl<'a> BinReader<'a> {
    /// Checks the magic and version and positions the reader at the first
    /// frame.
    ///
    /// # Errors
    ///
    /// A frame-0 [`FrameError`] when the magic bytes are wrong, the header
    /// is truncated, or the version is newer than this build reads.
    pub fn open(bytes: &'a [u8]) -> Result<BinReader<'a>, FrameError> {
        Ok(BinReader {
            frames: Cursor::open(bytes, BIN_MAGIC, BIN_VERSION)?,
            failed: false,
        })
    }
}

impl Iterator for BinReader<'_> {
    type Item = Result<Event, FrameError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let event = self
            .frames
            .next_frame()?
            .and_then(|mut f| Event::read(&mut f));
        self.failed = event.is_err();
        Some(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode(bytes: &[u8]) -> Vec<Event> {
        BinReader::open(bytes)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap()
    }

    #[test]
    fn header_is_magic_plus_version() {
        let sink = BinSink::new(Vec::new());
        let bytes = sink.into_writer().unwrap();
        assert_eq!(bytes, vec![b'C', b'M', b'V', b'B', BIN_VERSION]);
        assert!(is_binary_trace(&bytes));
        assert!(!is_binary_trace(b"{\"ev\":\"msg_sent\""));
        assert_eq!(decode(&bytes), Vec::new());
    }

    #[test]
    fn sink_reader_roundtrip() {
        let events = vec![
            Event::FleetProvisioned {
                t: 0,
                vehicles: 4,
                capacity: 10,
            },
            Event::JobArrived {
                t: 1,
                seq: 0,
                pos: vec![5, -5],
            },
            Event::MsgSent {
                t: 1,
                from: 0,
                to: 3,
                kind: Some(MsgKind::Query),
            },
            Event::PhaseSpan {
                name: "we\"ird\\name".into(),
                start_ns: 3,
                end_ns: 9,
            },
            Event::RoundProfile {
                round: 7,
                worker: 1,
                workers: 2,
                busy_ns: -3,
                barrier_wait_ns: 1 << 40,
                merge_ns: 0,
                sink_ns: 12,
                events: 99,
                steals: 1,
            },
        ];
        let mut sink = BinSink::new(Vec::new());
        for ev in &events {
            sink.record(ev);
        }
        assert_eq!(sink.written(), events.len() as u64);
        // Nothing is staged in the sink: the writer already holds every
        // frame, with no flush.
        assert_eq!(decode(sink.get_ref()), events);
        let bytes = sink.into_writer().unwrap();
        assert_eq!(decode(&bytes), events);
    }

    struct FailingWriter;
    impl Write for FailingWriter {
        fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
            Err(io::Error::other("disk on fire"))
        }
        fn flush(&mut self) -> io::Result<()> {
            Err(io::Error::other("disk on fire"))
        }
    }

    #[test]
    fn bin_error_is_sticky_and_surfaced() {
        let mut sink = BinSink::new(FailingWriter);
        for t in 0..10_000 {
            sink.record(&Event::MsgSent {
                t,
                from: 0,
                to: 1,
                kind: None,
            });
        }
        assert!(sink.finish().is_err());
    }
}
