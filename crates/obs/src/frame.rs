//! Length-prefixed binary frames: the one codec under both binary
//! formats, `CMVB` traces ([`crate::bin`]) and `CMVC` checkpoints
//! (`cmvrp-ckpt`).
//!
//! ```text
//! file  := magic (4 bytes) | version u8 | frame*
//! frame := varint(payload_len) | payload
//! ```
//!
//! Unsigned integers are LEB128 varints; signed integers are
//! zigzag-mapped first so small magnitudes stay short; strings are
//! `varint(len)` + UTF-8 bytes and integer arrays `varint(len)` +
//! elements. Formats evolve append-only: readers ignore trailing bytes
//! inside a frame so later versions can add fields, while a bad magic, a
//! newer version byte, an empty frame or a frame longer than the input is
//! a hard error.
//!
//! [`header`] and the `put_*` functions are the write side. [`Cursor`] is
//! the read side: [`Cursor::open`] checks the header,
//! [`Cursor::next_frame`] hands out each frame's payload as a cursor of
//! its own, and every typed read is bounds-checked. Each failure is a
//! [`FrameError`] naming the 1-based frame and the absolute byte offset;
//! no input makes a reader panic.

use std::fmt;

/// The 5-byte file header: the magic, then the version byte.
pub fn header(magic: [u8; 4], version: u8) -> [u8; 5] {
    let [a, b, c, d] = magic;
    [a, b, c, d, version]
}

/// Emits the LEB128 bytes of `v`, low group first. [`put_u64`] and
/// [`varint`] share this loop; it is always inlined so each of them runs
/// as fast as a loop written out in place.
#[inline(always)]
fn leb128(mut v: u64, mut emit: impl FnMut(u8)) {
    loop {
        let low = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return emit(low);
        }
        emit(low | 0x80);
    }
}

/// Writes the LEB128 encoding of `v` into a stack buffer and returns the
/// number of bytes used.
#[inline(always)]
pub(crate) fn varint(v: u64, out: &mut [u8; 10]) -> usize {
    let mut n = 0;
    leb128(v, |b| {
        out[n] = b;
        n += 1;
    });
    n
}

/// Appends `v` as a varint.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    leb128(v, |b| buf.push(b));
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends `v` zigzag-mapped, as a varint.
pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    put_u64(buf, zigzag(v));
}

/// Appends `s` as its byte length and its UTF-8 bytes.
pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Appends a signed-integer array: its length, then each element.
pub fn put_i64s(buf: &mut Vec<u8>, items: &[i64]) {
    put_u64(buf, items.len() as u64);
    for &v in items {
        put_i64(buf, v);
    }
}

/// Appends an unsigned-integer array: its length, then each element.
pub fn put_u64s(buf: &mut Vec<u8>, items: &[u64]) {
    put_u64(buf, items.len() as u64);
    for &v in items {
        put_u64(buf, v);
    }
}

/// Appends one frame: the payload's length, then the payload.
pub fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    put_u64(out, payload.len() as u64);
    out.extend_from_slice(payload);
}

/// A scoped decode error: which frame broke, and where in the input.
///
/// `frame` is 1-based (frame 0 means the 5-byte header itself was bad) and
/// `offset` is the absolute byte position the error was detected at, so
/// `trace check` over a binary trace can anchor violations the way line
/// numbers anchor them in JSONL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError {
    /// 1-based index of the offending frame; 0 for header errors.
    pub frame: usize,
    /// Absolute byte offset where decoding failed.
    pub offset: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.frame == 0 {
            write!(f, "header at byte {}: {}", self.offset, self.msg)
        } else {
            write!(
                f,
                "frame {} at byte {}: {}",
                self.frame, self.offset, self.msg
            )
        }
    }
}

impl std::error::Error for FrameError {}

/// A bounds-checked read position over a whole input ([`Cursor::open`])
/// or over one frame's payload ([`Cursor::next_frame`]).
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Absolute offset of `bytes[0]` in the input.
    base: usize,
    /// A payload's 1-based frame index; for a whole input, the frames
    /// handed out so far.
    frame: usize,
}

/// Why a varint could not be read.
enum Varint {
    Truncated,
    Overflow,
}

// The hot reads are `#[inline]`: decoders call them from other modules
// and crates, once per field of every frame.
impl<'a> Cursor<'a> {
    /// Checks the header of an input in the format named by `magic`,
    /// readable up to `version`, and returns a cursor at its first frame.
    ///
    /// # Errors
    ///
    /// A frame-0 error when the input is shorter than the header, the
    /// magic differs, or the version byte is newer than `version`.
    pub fn open(bytes: &'a [u8], magic: [u8; 4], version: u8) -> Result<Cursor<'a>, FrameError> {
        let header_err = |offset, msg| {
            Err(FrameError {
                frame: 0,
                offset,
                msg,
            })
        };
        if bytes.len() < 5 {
            let msg = format!("truncated header: {} bytes, need 5", bytes.len());
            return header_err(bytes.len(), msg);
        }
        if bytes[..4] != magic {
            let msg = format!("bad magic {:?}, expected {magic:?}", &bytes[..4]);
            return header_err(0, msg);
        }
        if bytes[4] > version {
            let msg = format!(
                "format version {} is newer than supported version {version}",
                bytes[4]
            );
            return header_err(4, msg);
        }
        Ok(Cursor {
            bytes,
            pos: 5,
            base: 0,
            frame: 0,
        })
    }

    /// The next frame's payload as a cursor of its own, or `None` at the
    /// end of the input. After a malformed length prefix the cursor yields
    /// nothing more: no later frame boundary can be trusted.
    #[inline]
    pub fn next_frame(&mut self) -> Option<Result<Cursor<'a>, FrameError>> {
        let bytes = self.bytes;
        if self.pos >= bytes.len() {
            return None;
        }
        self.frame += 1;
        let start = self.pos;
        let msg = match self.varint() {
            Err(Varint::Truncated) => "truncated frame length".to_string(),
            Err(Varint::Overflow) => "frame length overflows u64".to_string(),
            Ok(0) => "empty frame".to_string(),
            Ok(len) => {
                let remaining = bytes.len() - self.pos;
                if len <= remaining as u64 {
                    let end = self.pos + len as usize;
                    let payload = Cursor {
                        bytes: &bytes[self.pos..end],
                        pos: 0,
                        base: self.base + self.pos,
                        frame: self.frame,
                    };
                    self.pos = end;
                    return Some(Ok(payload));
                }
                format!("frame length {len} exceeds remaining {remaining} bytes")
            }
        };
        self.pos = bytes.len();
        Some(Err(FrameError {
            frame: self.frame,
            offset: self.base + start,
            msg,
        }))
    }

    /// The error for a frame the format requires but the input lacks: it
    /// names the next frame, at the end of the input.
    pub fn missing(&self, msg: impl Into<String>) -> FrameError {
        FrameError {
            frame: self.frame + 1,
            offset: self.base + self.bytes.len(),
            msg: msg.into(),
        }
    }

    /// The bytes not read yet.
    pub(crate) fn rest(&self) -> &'a [u8] {
        &self.bytes[self.pos..]
    }

    /// Whether every byte has been read.
    pub fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    /// An error at the current read position.
    pub fn err(&self, msg: impl Into<String>) -> FrameError {
        FrameError {
            frame: self.frame,
            offset: self.base + self.pos,
            msg: msg.into(),
        }
    }

    #[inline]
    fn varint(&mut self) -> Result<u64, Varint> {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let &b = self.bytes.get(self.pos).ok_or(Varint::Truncated)?;
            self.pos += 1;
            // The tenth byte may only carry the top bit of a u64.
            if shift == 63 && b > 1 {
                return Err(Varint::Overflow);
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, FrameError> {
        let &b = self
            .bytes
            .get(self.pos)
            .ok_or_else(|| self.err("payload truncated"))?;
        self.pos += 1;
        Ok(b)
    }

    /// A varint.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, FrameError> {
        self.varint().map_err(|e| {
            self.err(match e {
                Varint::Truncated => "payload truncated",
                Varint::Overflow => "varint overflows u64",
            })
        })
    }

    /// A zigzag-mapped varint.
    #[inline]
    pub fn i64(&mut self) -> Result<i64, FrameError> {
        self.u64().map(unzigzag)
    }

    /// A varint that must fit a `usize`.
    #[inline]
    pub fn usize(&mut self) -> Result<usize, FrameError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| self.err(format!("value {v} overflows usize")))
    }

    /// A byte that must be 0 or 1.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, FrameError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(self.err(format!("bad bool byte {other}"))),
        }
    }

    /// A length-prefixed UTF-8 string.
    pub(crate) fn str(&mut self) -> Result<String, FrameError> {
        let len = self.usize()?;
        let raw = self.bytes[self.pos..]
            .get(..len)
            .ok_or_else(|| self.err(format!("string length {len} exceeds payload")))?;
        let s = std::str::from_utf8(raw)
            .map_err(|e| self.err(format!("string is not UTF-8: {e}")))?
            .to_string();
        self.pos += len;
        Ok(s)
    }

    /// A length-prefixed array whose elements `item` reads. Every element
    /// takes at least one byte, so a length the payload cannot hold is
    /// refused before anything is allocated.
    pub fn array<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, FrameError>,
    ) -> Result<Vec<T>, FrameError> {
        let len = self.usize()?;
        if len > self.bytes.len() - self.pos {
            return Err(self.err(format!("array length {len} exceeds payload")));
        }
        (0..len).map(|_| item(self)).collect()
    }

    /// A length-prefixed array of zigzag-mapped varints.
    #[inline]
    pub fn i64s(&mut self) -> Result<Vec<i64>, FrameError> {
        self.array(Self::i64)
    }

    /// A length-prefixed array of varints.
    pub fn u64s(&mut self) -> Result<Vec<u64>, FrameError> {
        self.array(Self::u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(bytes: &[u8]) -> Cursor<'_> {
        Cursor {
            bytes,
            pos: 0,
            base: 0,
            frame: 1,
        }
    }

    #[test]
    fn zigzag_roundtrips_edges() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 1 << 40, -(1 << 40)] {
            assert_eq!(unzigzag(zigzag(v)), v, "value {v}");
        }
    }

    #[test]
    fn varint_roundtrips_edges() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            put_u64(&mut buf, v);
            assert_eq!(buf.len(), varint(v, &mut [0; 10]));
            let mut c = payload(&buf);
            assert_eq!(c.u64().unwrap(), v);
            assert_eq!(c.pos, buf.len(), "value {v} left trailing bytes");
        }
    }

    #[test]
    fn overlong_varints_are_errors() {
        let mut c = payload(&[0xff; 10]);
        assert_eq!(c.u64().unwrap_err().msg, "varint overflows u64");
        let mut c = payload(&[0x80, 0x80]);
        assert_eq!(c.u64().unwrap_err().msg, "payload truncated");
    }

    #[test]
    fn arrays_refuse_lengths_the_payload_cannot_hold() {
        let mut buf = Vec::new();
        put_i64s(&mut buf, &[3, -4, i64::MIN]);
        put_u64s(&mut buf, &[7, u64::MAX]);
        put_str(&mut buf, "é");
        let mut c = payload(&buf);
        assert_eq!(c.i64s().unwrap(), vec![3, -4, i64::MIN]);
        assert_eq!(c.u64s().unwrap(), vec![7, u64::MAX]);
        assert_eq!(c.str().unwrap(), "é");
        let mut c = payload(&[0xff, 0xff, 0x03, 1]);
        assert!(c.u64s().unwrap_err().msg.contains("exceeds payload"));
    }

    #[test]
    fn frames_are_handed_out_with_absolute_offsets() {
        let mut file = header(*b"TEST", 1).to_vec();
        put_frame(&mut file, &[1, 2]);
        put_frame(&mut file, &[3]);
        let mut c = Cursor::open(&file, *b"TEST", 1).unwrap();
        let mut first = c.next_frame().unwrap().unwrap();
        assert_eq!((first.u8().unwrap(), first.u8().unwrap()), (1, 2));
        let err = first.u8().unwrap_err();
        assert_eq!((err.frame, err.offset), (1, 8));
        let mut second = c.next_frame().unwrap().unwrap();
        assert_eq!(second.u8().unwrap(), 3);
        assert!(c.next_frame().is_none());
        let missing = c.missing("no third frame");
        assert_eq!((missing.frame, missing.offset), (3, file.len()));
    }
}
