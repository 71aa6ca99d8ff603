//! Event sinks: where trace events go.
//!
//! The sink API has two halves:
//!
//! * [`Sink`] is **dyn-compatible**: execution engines accept a
//!   caller-supplied `&mut dyn Sink` and stream the canonical event order
//!   into it, so callers choose the destination (file, buffer, checker)
//!   without the engine being generic over it.
//! * [`StaticSink`] adds the compile-time `ENABLED` constant. The hot
//!   simulation loops are generic over `S: StaticSink` and guard event
//!   *construction* behind `S::ENABLED`, so a [`NullSink`]-typed run
//!   monomorphizes to nothing. Engines bridge the two worlds: they consult
//!   [`Sink::is_enabled`] once up front and route disabled runs onto the
//!   `NullSink`-typed fast path.

use crate::event::Event;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// A destination for trace events (dyn-compatible; see the module docs).
pub trait Sink {
    /// Records one event.
    fn record(&mut self, event: &Event);

    /// Flushes any buffered output; default is a no-op.
    fn flush_events(&mut self) {}

    /// Whether recording does anything at all. Engines consult this once
    /// per run to route disabled sinks onto the untraced fast path (which
    /// skips event construction wholesale); `true` for every sink except
    /// [`NullSink`].
    fn is_enabled(&self) -> bool {
        true
    }
}

/// A [`Sink`] whose enablement is a compile-time constant.
///
/// Simulation hot loops bound by `S: StaticSink` skip event construction
/// entirely when `S::ENABLED` is false. Every concrete sink in this module
/// implements it; `&mut dyn Sink` participates through the blanket impl on
/// mutable references, which is conservatively enabled (the engines have
/// already diverted disabled sinks before handing a reference down).
pub trait StaticSink: Sink {
    /// Compile-time mirror of [`Sink::is_enabled`].
    const ENABLED: bool = true;
}

impl<S: Sink + ?Sized> Sink for &mut S {
    fn record(&mut self, event: &Event) {
        (**self).record(event);
    }

    fn flush_events(&mut self) {
        (**self).flush_events();
    }

    fn is_enabled(&self) -> bool {
        (**self).is_enabled()
    }
}

impl<S: Sink + ?Sized> StaticSink for &mut S {}

/// The default sink: discards everything, compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl Sink for NullSink {
    #[inline(always)]
    fn record(&mut self, _event: &Event) {}

    fn is_enabled(&self) -> bool {
        false
    }
}

impl StaticSink for NullSink {
    const ENABLED: bool = false;
}

/// A bounded in-memory ring buffer keeping the most recent events.
///
/// # Examples
///
/// ```
/// use cmvrp_obs::{Event, RingSink, Sink};
///
/// let mut ring = RingSink::new(2);
/// for t in 0..3 {
///     ring.record(&Event::MsgSent { t, from: 0, to: 1, kind: None });
/// }
/// assert_eq!(ring.len(), 2);
/// assert_eq!(ring.overwritten(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct RingSink {
    capacity: usize,
    buf: VecDeque<Event>,
    overwritten: u64,
}

impl RingSink {
    /// Creates a ring keeping at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        RingSink {
            capacity,
            buf: VecDeque::with_capacity(capacity),
            overwritten: 0,
        }
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.buf.iter()
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// How many events were evicted to make room.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Drains the ring, oldest first.
    pub fn drain(&mut self) -> Vec<Event> {
        self.buf.drain(..).collect()
    }
}

impl Sink for RingSink {
    fn record(&mut self, event: &Event) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.overwritten += 1;
        }
        self.buf.push_back(event.clone());
    }
}

impl StaticSink for RingSink {}

/// An unbounded in-memory sink: keeps every event, in order.
///
/// The sharded engine gives each shard a `VecSink`, then merges the
/// per-shard buffers into one canonical stream after the run; unlike
/// [`RingSink`] nothing is ever evicted.
///
/// # Examples
///
/// ```
/// use cmvrp_obs::{Event, Sink, VecSink};
///
/// let mut sink = VecSink::default();
/// sink.record(&Event::JobArrived { t: 1, seq: 0, pos: vec![0, 0] });
/// assert_eq!(sink.len(), 1);
/// assert_eq!(sink.drain().len(), 1);
/// assert!(sink.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    buf: Vec<Event>,
}

impl VecSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// Events recorded so far, oldest first.
    pub fn events(&self) -> &[Event] {
        &self.buf
    }

    /// Number of events held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Takes the buffered events, leaving the sink empty.
    pub fn drain(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.buf)
    }
}

impl Sink for VecSink {
    fn record(&mut self, event: &Event) {
        self.buf.push(event.clone());
    }
}

impl StaticSink for VecSink {}

/// Streams events as JSON lines to any writer (hand-rolled, no serde).
///
/// Each line is rendered into one reused buffer, so recording allocates
/// nothing once the buffer has grown to the longest line. I/O errors are
/// sticky: the first one is remembered and surfaced by
/// [`JsonlSink::finish`]; recording never panics mid-simulation.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: BufWriter<W>,
    line: String,
    written: u64,
    error: Option<io::Error>,
}

impl JsonlSink<File> {
    /// Creates (truncating) a trace file at `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlSink::new(File::create(path)?))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer: BufWriter::new(writer),
            line: String::with_capacity(128),
            written: 0,
            error: None,
        }
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

impl<W: Write> Sink for JsonlSink<W> {
    fn record(&mut self, event: &Event) {
        if self.error.is_some() {
            return;
        }
        self.line.clear();
        event.append_json(&mut self.line);
        self.line.push('\n');
        match self.writer.write_all(self.line.as_bytes()) {
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

impl<W: Write> StaticSink for JsonlSink<W> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64) -> Event {
        Event::MsgSent {
            t,
            from: 0,
            to: 1,
            kind: None,
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        const { assert!(!NullSink::ENABLED) };
        assert!(!NullSink.is_enabled());
        NullSink.record(&ev(0)); // does nothing, does not panic
    }

    #[test]
    fn dyn_sinks_forward_through_mut_refs() {
        // The engines hand `&mut dyn Sink` down; the blanket impl must
        // forward records and report the referent's enablement.
        let mut vec = VecSink::new();
        {
            let dyn_sink: &mut dyn Sink = &mut vec;
            assert!(dyn_sink.is_enabled());
            let reborrow = dyn_sink;
            reborrow.record(&ev(1));
            reborrow.flush_events();
        }
        assert_eq!(vec.len(), 1);
        let mut null = NullSink;
        let dyn_null: &mut dyn Sink = &mut null;
        assert!(!dyn_null.is_enabled());
        // The static flag on `&mut S` is conservatively enabled.
        const { assert!(<&mut VecSink as StaticSink>::ENABLED) };
    }

    #[test]
    fn ring_keeps_most_recent() {
        let mut ring = RingSink::new(3);
        for t in 0..5 {
            ring.record(&ev(t));
        }
        let ts: Vec<u64> = ring
            .events()
            .map(|e| match e {
                Event::MsgSent { t, .. } => *t,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ts, vec![2, 3, 4]);
        assert_eq!(ring.overwritten(), 2);
        assert_eq!(ring.drain().len(), 3);
        assert!(ring.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_ring_rejected() {
        let _ = RingSink::new(0);
    }

    #[test]
    fn jsonl_writes_parseable_lines() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&ev(1));
        sink.record(&Event::JobArrived {
            t: 2,
            seq: 0,
            pos: vec![1, 2],
        });
        assert_eq!(sink.written(), 2);
        let buf = sink.writer.into_inner().unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            Event::from_json(line).unwrap();
        }
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
    fn jsonl_error_is_sticky_and_surfaced() {
        let mut sink = JsonlSink::new(FailingWriter);
        // BufWriter buffers, so force enough data through to hit the writer.
        for t in 0..10_000 {
            sink.record(&ev(t));
        }
        assert!(sink.finish().is_err());
    }
}
