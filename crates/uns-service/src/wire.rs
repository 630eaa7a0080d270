//! Framing and primitive codecs of the wire protocol.
//!
//! Every message — request or response — travels as one **frame**:
//!
//! ```text
//! [ body length: u32 LE ][ body: length bytes ]
//! body = [ version: u8 ][ opcode: u8 ][ payload ]
//! ```
//!
//! The length prefix makes the stream self-delimiting over any reliable
//! byte transport (TCP, an in-process Unix socket pair); the version byte
//! makes the protocol evolvable (a peer rejects versions it does not speak
//! instead of misparsing); the opcode dispatches the payload codec
//! ([`crate::protocol`]). All integers are little-endian. Frames are
//! capped at [`MAX_FRAME_LEN`] so a corrupt or malicious length prefix
//! cannot make a peer allocate unbounded memory.
//!
//! The [`Cursor`] reader borrows the frame buffer — payload decoding is
//! zero-copy: batch identifier arrays are handed to the sampler layer as
//! typed views over the receive buffer (see
//! [`crate::protocol::IdsView`]), not as freshly allocated vectors.

use crate::error::ServiceError;
use std::io::{self, IoSlice, Read, Write};

/// Wire protocol version this build speaks. v2 grew the Stats payload
/// (durability counters) and the Durability error code.
pub const PROTOCOL_VERSION: u8 = 2;

/// Upper bound on a frame body, chosen to fit multi-megabyte snapshot
/// blobs and million-identifier batches with headroom while bounding what
/// a single frame can make a peer allocate.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// Appends `value` as LE bytes.
pub fn put_u16(out: &mut Vec<u8>, value: u16) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends `value` as LE bytes.
pub fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends `value` as LE bytes.
pub fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends `value` as LE bytes (two's complement).
pub fn put_i64(out: &mut Vec<u8>, value: i64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends a length-prefixed (u16) UTF-8 string.
///
/// # Panics
///
/// Panics if `value` is longer than `u16::MAX` bytes — stream names are
/// validated well below that at creation time.
pub fn put_str(out: &mut Vec<u8>, value: &str) {
    let len = u16::try_from(value.len()).expect("string longer than u16::MAX");
    put_u16(out, len);
    out.extend_from_slice(value.as_bytes());
}

/// A borrowing reader over a frame body with protocol-error reporting.
#[derive(Clone, Copy, Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Number of unread bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` bytes as a borrowed slice.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Protocol`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ServiceError> {
        if self.remaining() < n {
            return Err(ServiceError::Protocol(format!(
                "frame truncated: needed {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Protocol`] on a truncated frame.
    pub fn u8(&mut self) -> Result<u8, ServiceError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a LE u16.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Protocol`] on a truncated frame.
    pub fn u16(&mut self) -> Result<u16, ServiceError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("length checked")))
    }

    /// Reads a LE u32.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Protocol`] on a truncated frame.
    pub fn u32(&mut self) -> Result<u32, ServiceError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("length checked")))
    }

    /// Reads a LE u64.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Protocol`] on a truncated frame.
    pub fn u64(&mut self) -> Result<u64, ServiceError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("length checked")))
    }

    /// Reads a LE i64 (two's complement).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Protocol`] on a truncated frame.
    pub fn i64(&mut self) -> Result<i64, ServiceError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("length checked")))
    }

    /// Reads a u16-length-prefixed UTF-8 string, borrowed from the frame.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Protocol`] on truncation or invalid UTF-8.
    pub fn str(&mut self) -> Result<&'a str, ServiceError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map_err(|err| ServiceError::Protocol(format!("invalid UTF-8 in string: {err}")))
    }

    /// Asserts the frame was consumed exactly.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Protocol`] when trailing bytes remain.
    pub fn finish(self) -> Result<(), ServiceError> {
        if self.remaining() != 0 {
            return Err(ServiceError::Protocol(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Writes `body` as one length-prefixed frame and flushes. The prefix
/// and the body go out in one vectored write where the writer takes it
/// all, so a `TCP_NODELAY` socket sends a small frame as one segment.
///
/// # Errors
///
/// [`ServiceError::Protocol`] when `body` exceeds [`MAX_FRAME_LEN`];
/// [`ServiceError::Io`] on transport failure.
pub fn write_frame<W: Write>(writer: &mut W, body: &[u8]) -> Result<(), ServiceError> {
    if body.len() > MAX_FRAME_LEN {
        return Err(ServiceError::Protocol(format!(
            "frame body of {} bytes exceeds the {MAX_FRAME_LEN}-byte cap",
            body.len()
        )));
    }
    let len = (body.len() as u32).to_le_bytes();
    let mut slices = [IoSlice::new(&len), IoSlice::new(body)];
    let mut unsent = &mut slices[..];
    while !unsent.is_empty() {
        match writer.write_vectored(unsent) {
            Ok(0) => return Err(io::Error::from(io::ErrorKind::WriteZero).into()),
            Ok(n) => IoSlice::advance_slices(&mut unsent, n),
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(err) => return Err(err.into()),
        }
    }
    writer.flush()?;
    Ok(())
}

/// Reads one frame body into `buf` (clearing it first). Returns `Ok(false)`
/// on a clean end-of-stream **before** the length prefix — the peer hung
/// up between messages, which is how connections normally end.
///
/// # Errors
///
/// [`ServiceError::Protocol`] on an oversized length prefix or a stream
/// cut mid-frame; [`ServiceError::Io`] on transport failure.
pub fn read_frame<R: Read>(reader: &mut R, buf: &mut Vec<u8>) -> Result<bool, ServiceError> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        let n = reader.read(&mut len_bytes[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(false); // clean hang-up between frames
            }
            return Err(ServiceError::Protocol("stream cut inside a length prefix".into()));
        }
        filled += n;
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_LEN {
        return Err(ServiceError::Protocol(format!(
            "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap"
        )));
    }
    buf.clear();
    buf.resize(len, 0);
    reader
        .read_exact(buf)
        .map_err(|err| ServiceError::Protocol(format!("stream cut inside a frame body: {err}")))?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut out = Vec::new();
        put_u16(&mut out, 7);
        put_u32(&mut out, 0xdead_beef);
        put_u64(&mut out, u64::MAX - 3);
        put_i64(&mut out, -42);
        put_str(&mut out, "stream-α");
        let mut cur = Cursor::new(&out);
        assert_eq!(cur.u16().unwrap(), 7);
        assert_eq!(cur.u32().unwrap(), 0xdead_beef);
        assert_eq!(cur.u64().unwrap(), u64::MAX - 3);
        assert_eq!(cur.i64().unwrap(), -42);
        assert_eq!(cur.str().unwrap(), "stream-α");
        cur.finish().unwrap();
    }

    #[test]
    fn cursor_reports_truncation_and_trailing_bytes() {
        let mut cur = Cursor::new(&[1, 2]);
        assert!(matches!(cur.u32(), Err(ServiceError::Protocol(_))));
        let mut cur = Cursor::new(&[1, 2, 3]);
        let _ = cur.u8().unwrap();
        assert!(matches!(cur.finish(), Err(ServiceError::Protocol(_))));
    }

    #[test]
    fn frames_round_trip_over_a_byte_stream() {
        let mut pipe = Vec::new();
        write_frame(&mut pipe, b"hello").unwrap();
        write_frame(&mut pipe, b"").unwrap();
        let mut reader = &pipe[..];
        let mut buf = Vec::new();
        assert!(read_frame(&mut reader, &mut buf).unwrap());
        assert_eq!(buf, b"hello");
        assert!(read_frame(&mut reader, &mut buf).unwrap());
        assert_eq!(buf, b"");
        assert!(!read_frame(&mut reader, &mut buf).unwrap()); // clean EOF
    }

    /// Records each write call and takes at most `per_call` bytes of it.
    struct Trickle {
        per_call: usize,
        calls: usize,
        bytes: Vec<u8>,
    }

    impl Write for Trickle {
        fn write(&mut self, data: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(data)])
        }

        fn write_vectored(&mut self, slices: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut taken = 0;
            for slice in slices {
                let n = slice.len().min(self.per_call - taken);
                self.bytes.extend_from_slice(&slice[..n]);
                taken += n;
            }
            Ok(taken)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_vectored_write_and_survives_partial_writes() {
        let body = b"one frame, one segment";
        let mut want = Vec::new();
        want.extend_from_slice(&(body.len() as u32).to_le_bytes());
        want.extend_from_slice(body);

        let mut whole = Trickle { per_call: usize::MAX, calls: 0, bytes: Vec::new() };
        write_frame(&mut whole, body).unwrap();
        assert_eq!(whole.bytes, want);
        assert_eq!(whole.calls, 1, "prefix and body must leave in one write");

        let mut byte_by_byte = Trickle { per_call: 1, calls: 0, bytes: Vec::new() };
        write_frame(&mut byte_by_byte, body).unwrap();
        assert_eq!(byte_by_byte.bytes, want, "partial writes must still yield an intact frame");
        assert_eq!(byte_by_byte.calls, want.len());
        let mut buf = Vec::new();
        assert!(read_frame(&mut &byte_by_byte.bytes[..], &mut buf).unwrap());
        assert_eq!(buf, body);
    }

    #[test]
    fn oversized_and_cut_frames_are_protocol_errors() {
        let mut pipe = Vec::new();
        pipe.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        let mut buf = Vec::new();
        assert!(matches!(read_frame(&mut &pipe[..], &mut buf), Err(ServiceError::Protocol(_))));
        // Length prefix promises 10 bytes, stream ends after 3.
        let mut pipe = Vec::new();
        pipe.extend_from_slice(&10u32.to_le_bytes());
        pipe.extend_from_slice(&[1, 2, 3]);
        assert!(matches!(read_frame(&mut &pipe[..], &mut buf), Err(ServiceError::Protocol(_))));
        // Stream ends inside the length prefix itself.
        let pipe = [1u8, 0];
        assert!(matches!(read_frame(&mut &pipe[..], &mut buf), Err(ServiceError::Protocol(_))));
    }
}
