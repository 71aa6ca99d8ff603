//! Binary trace format: the same [`Event`] vocabulary as the JSONL schema
//! in the length-prefixed frames of [`crate::frame`], under the magic
//! `CMVB`. Each frame holds one event:
//!
//! ```text
//! payload := tag (1 byte) | fields
//! ```
//!
//! Fields use the frame encodings: varints, zigzag for the signed values
//! (position coordinates, `round_profile` nanoseconds), length-prefixed
//! strings and coordinate vectors; the optional message `kind` is a single
//! byte (0 = absent). The format is append-only in the same sense as the
//! JSONL schema, and an unknown tag is a hard error.
//!
//! [`BinSink`] is the write side — a [`Sink`] like [`crate::JsonlSink`]
//! but with no per-event allocation (one reusable scratch buffer) —
//! and [`decode_trace`] the read side: its [`FrameError`]s carry the
//! 1-based frame index and absolute byte offset, and no truncated or
//! corrupt input makes it panic.

use crate::event::{DropReason, Event, MsgKind};
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

fn put_kind(buf: &mut Vec<u8>, kind: &Option<MsgKind>) {
    buf.push(match kind {
        None => 0,
        Some(MsgKind::Query) => 1,
        Some(MsgKind::Reply) => 2,
        Some(MsgKind::Move) => 3,
        Some(MsgKind::Heartbeat) => 4,
    });
}

// Frame tags, in declaration order of the `Event` enum.
const TAG_MSG_SENT: u8 = 1;
const TAG_MSG_DELIVERED: u8 = 2;
const TAG_MSG_DROPPED: u8 = 3;
const TAG_JOB_ARRIVED: u8 = 4;
const TAG_JOB_SERVED: u8 = 5;
const TAG_DIFFUSION_STARTED: u8 = 6;
const TAG_DIFFUSION_COMPLETED: u8 = 7;
const TAG_REPLACEMENT_CYCLE: u8 = 8;
const TAG_HEARTBEAT_MISSED: u8 = 9;
const TAG_FLEET_PROVISIONED: u8 = 10;
const TAG_PROCESS_CRASHED: u8 = 11;
const TAG_PHASE_SPAN: u8 = 12;
const TAG_ROUND_PROFILE: u8 = 13;

/// Encodes one event's frame *payload* (tag + fields, no length prefix)
/// into `buf`, which is cleared first.
fn encode_payload(ev: &Event, buf: &mut Vec<u8>) {
    buf.clear();
    match ev {
        Event::MsgSent { t, from, to, kind } => {
            buf.push(TAG_MSG_SENT);
            put_u64(buf, *t);
            put_u64(buf, *from as u64);
            put_u64(buf, *to as u64);
            put_kind(buf, kind);
        }
        Event::MsgDelivered {
            t,
            from,
            to,
            delay,
            kind,
        } => {
            buf.push(TAG_MSG_DELIVERED);
            put_u64(buf, *t);
            put_u64(buf, *from as u64);
            put_u64(buf, *to as u64);
            put_u64(buf, *delay);
            put_kind(buf, kind);
        }
        Event::MsgDropped {
            t,
            from,
            to,
            reason,
            kind,
        } => {
            buf.push(TAG_MSG_DROPPED);
            put_u64(buf, *t);
            put_u64(buf, *from as u64);
            put_u64(buf, *to as u64);
            buf.push(match reason {
                DropReason::Lost => 0,
                DropReason::RecipientCrashed => 1,
            });
            put_kind(buf, kind);
        }
        Event::JobArrived { t, seq, pos } => {
            buf.push(TAG_JOB_ARRIVED);
            put_u64(buf, *t);
            put_u64(buf, *seq);
            put_i64s(buf, pos);
        }
        Event::JobServed {
            t,
            seq,
            vehicle,
            cost,
        } => {
            buf.push(TAG_JOB_SERVED);
            put_u64(buf, *t);
            put_u64(buf, *seq);
            put_u64(buf, *vehicle as u64);
            put_u64(buf, *cost);
        }
        Event::DiffusionStarted {
            t,
            initiator,
            generation,
        } => {
            buf.push(TAG_DIFFUSION_STARTED);
            put_u64(buf, *t);
            put_u64(buf, *initiator as u64);
            put_u64(buf, *generation);
        }
        Event::DiffusionCompleted {
            t,
            initiator,
            generation,
            found,
        } => {
            buf.push(TAG_DIFFUSION_COMPLETED);
            put_u64(buf, *t);
            put_u64(buf, *initiator as u64);
            put_u64(buf, *generation);
            buf.push(u8::from(*found));
        }
        Event::ReplacementCycle {
            t,
            vehicle,
            dest,
            dist,
        } => {
            buf.push(TAG_REPLACEMENT_CYCLE);
            put_u64(buf, *t);
            put_u64(buf, *vehicle as u64);
            put_i64s(buf, dest);
            put_u64(buf, *dist);
        }
        Event::HeartbeatMissed { t, watcher, peer } => {
            buf.push(TAG_HEARTBEAT_MISSED);
            put_u64(buf, *t);
            put_u64(buf, *watcher as u64);
            put_u64(buf, *peer as u64);
        }
        Event::FleetProvisioned {
            t,
            vehicles,
            capacity,
        } => {
            buf.push(TAG_FLEET_PROVISIONED);
            put_u64(buf, *t);
            put_u64(buf, *vehicles);
            put_u64(buf, *capacity);
        }
        Event::ProcessCrashed { t, proc } => {
            buf.push(TAG_PROCESS_CRASHED);
            put_u64(buf, *t);
            put_u64(buf, *proc as u64);
        }
        Event::PhaseSpan {
            name,
            start_ns,
            end_ns,
        } => {
            buf.push(TAG_PHASE_SPAN);
            put_str(buf, name);
            put_u64(buf, *start_ns);
            put_u64(buf, *end_ns);
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
            buf.push(TAG_ROUND_PROFILE);
            put_u64(buf, *round);
            put_u64(buf, *worker);
            put_u64(buf, *workers);
            put_i64(buf, *busy_ns);
            put_i64(buf, *barrier_wait_ns);
            put_i64(buf, *merge_ns);
            put_i64(buf, *sink_ns);
            put_u64(buf, *events);
            put_u64(buf, *steals);
        }
    }
}

/// Streams events as binary frames to any writer.
///
/// The binary sibling of [`crate::JsonlSink`]: buffered writes, sticky I/O
/// errors surfaced by [`BinSink::finish`], and — the point of the format —
/// no per-event heap allocation: each event is encoded into one reusable
/// scratch buffer.
#[derive(Debug)]
pub struct BinSink<W: Write> {
    writer: BufWriter<W>,
    scratch: Vec<u8>,
    written: u64,
    error: Option<io::Error>,
}

impl BinSink<File> {
    /// Creates (truncating) a binary trace file at `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(BinSink::new(File::create(path)?))
    }
}

impl<W: Write> BinSink<W> {
    /// Wraps an arbitrary writer and writes the magic + version header.
    pub fn new(writer: W) -> Self {
        let mut sink = BinSink {
            writer: BufWriter::new(writer),
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
        self.writer.into_inner().map_err(|e| e.into_error())
    }
}

impl<W: Write> Sink for BinSink<W> {
    fn record(&mut self, event: &Event) {
        if self.error.is_some() {
            return;
        }
        encode_payload(event, &mut self.scratch);
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

fn kind(c: &mut Cursor<'_>) -> Result<Option<MsgKind>, FrameError> {
    match c.u8()? {
        0 => Ok(None),
        1 => Ok(Some(MsgKind::Query)),
        2 => Ok(Some(MsgKind::Reply)),
        3 => Ok(Some(MsgKind::Move)),
        4 => Ok(Some(MsgKind::Heartbeat)),
        other => Err(c.err(format!("unknown msg-kind byte {other}"))),
    }
}

/// Decodes one frame payload. Trailing bytes are ignored (append-only
/// schema evolution, mirroring "readers must ignore unknown fields").
fn decode_payload(c: &mut Cursor<'_>) -> Result<Event, FrameError> {
    let ev = match c.u8()? {
        TAG_MSG_SENT => Event::MsgSent {
            t: c.u64()?,
            from: c.usize()?,
            to: c.usize()?,
            kind: kind(c)?,
        },
        TAG_MSG_DELIVERED => Event::MsgDelivered {
            t: c.u64()?,
            from: c.usize()?,
            to: c.usize()?,
            delay: c.u64()?,
            kind: kind(c)?,
        },
        TAG_MSG_DROPPED => Event::MsgDropped {
            t: c.u64()?,
            from: c.usize()?,
            to: c.usize()?,
            reason: match c.u8()? {
                0 => DropReason::Lost,
                1 => DropReason::RecipientCrashed,
                other => return Err(c.err(format!("unknown drop-reason byte {other}"))),
            },
            kind: kind(c)?,
        },
        TAG_JOB_ARRIVED => Event::JobArrived {
            t: c.u64()?,
            seq: c.u64()?,
            pos: c.i64s()?,
        },
        TAG_JOB_SERVED => Event::JobServed {
            t: c.u64()?,
            seq: c.u64()?,
            vehicle: c.usize()?,
            cost: c.u64()?,
        },
        TAG_DIFFUSION_STARTED => Event::DiffusionStarted {
            t: c.u64()?,
            initiator: c.usize()?,
            generation: c.u64()?,
        },
        TAG_DIFFUSION_COMPLETED => Event::DiffusionCompleted {
            t: c.u64()?,
            initiator: c.usize()?,
            generation: c.u64()?,
            found: c.bool()?,
        },
        TAG_REPLACEMENT_CYCLE => Event::ReplacementCycle {
            t: c.u64()?,
            vehicle: c.usize()?,
            dest: c.i64s()?,
            dist: c.u64()?,
        },
        TAG_HEARTBEAT_MISSED => Event::HeartbeatMissed {
            t: c.u64()?,
            watcher: c.usize()?,
            peer: c.usize()?,
        },
        TAG_FLEET_PROVISIONED => Event::FleetProvisioned {
            t: c.u64()?,
            vehicles: c.u64()?,
            capacity: c.u64()?,
        },
        TAG_PROCESS_CRASHED => Event::ProcessCrashed {
            t: c.u64()?,
            proc: c.usize()?,
        },
        TAG_PHASE_SPAN => Event::PhaseSpan {
            name: c.str()?,
            start_ns: c.u64()?,
            end_ns: c.u64()?,
        },
        TAG_ROUND_PROFILE => Event::RoundProfile {
            round: c.u64()?,
            worker: c.u64()?,
            workers: c.u64()?,
            busy_ns: c.i64()?,
            barrier_wait_ns: c.i64()?,
            merge_ns: c.i64()?,
            sink_ns: c.i64()?,
            events: c.u64()?,
            steals: c.u64()?,
        },
        other => return Err(c.err(format!("unknown event tag {other}"))),
    };
    Ok(ev)
}

/// Decodes a whole binary trace into events, stopping at the first error:
/// past a corrupt frame no later frame boundary can be trusted.
///
/// # Errors
///
/// The first [`FrameError`]: frame 0 when the magic bytes are wrong, the
/// header is truncated, or the version is newer than this build reads;
/// otherwise the first corrupt frame. No input makes it panic.
pub fn decode_trace(bytes: &[u8]) -> Result<Vec<Event>, FrameError> {
    let mut frames = Cursor::open(bytes, BIN_MAGIC, BIN_VERSION)?;
    let mut events = Vec::new();
    while let Some(frame) = frames.next_frame() {
        events.push(decode_payload(&mut frame?)?);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_is_magic_plus_version() {
        let sink = BinSink::new(Vec::new());
        let bytes = sink.into_writer().unwrap();
        assert_eq!(bytes, vec![b'C', b'M', b'V', b'B', BIN_VERSION]);
        assert!(is_binary_trace(&bytes));
        assert!(!is_binary_trace(b"{\"ev\":\"msg_sent\""));
        assert_eq!(decode_trace(&bytes).unwrap(), Vec::new());
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
        let bytes = sink.into_writer().unwrap();
        assert_eq!(decode_trace(&bytes).unwrap(), events);
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
