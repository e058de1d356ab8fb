//! Length-prefixed binary framing: the byte layer under the typed
//! protocol of [`crate::proto`].
//!
//! # Frame layout
//!
//! Every frame is self-describing — no connection handshake state:
//!
//! ```text
//! [ u32 len ][ u32 magic "GHBA" ][ u16 version ][ u8 tag ][ body … ]
//!  \_ LE __/  \_________________ len bytes _________________/
//! ```
//!
//! `len` counts everything after itself (magic + version + tag + body),
//! so a reader always knows how many bytes to pull before touching the
//! payload. All integers are little-endian; strings are `u32` length +
//! UTF-8 bytes; `Option<T>` is a `u8` presence flag + `T`; sequences
//! are `u32` count + elements.
//!
//! # Robustness contract
//!
//! The decoder **never panics** on foreign bytes. Every malformed shape
//! maps to a typed [`WireError`]:
//!
//! * a length prefix above [`MAX_FRAME_LEN`] → [`WireError::Oversized`]
//!   (rejected *before* allocating, so a hostile 4 GiB prefix cannot
//!   balloon memory);
//! * a length too short to hold the fixed header →
//!   [`WireError::RuntFrame`];
//! * bytes that end mid-frame → [`WireError::Truncated`];
//! * wrong magic / unsupported version / unknown message tag →
//!   [`WireError::BadMagic`] / [`WireError::UnsupportedVersion`] /
//!   [`WireError::UnknownTag`];
//! * bytes left over after a complete message body →
//!   [`WireError::TrailingBytes`].
//!
//! The property suite (`tests/properties.rs`) feeds random byte
//! prefixes through [`Frame::parse`] to pin the no-panic guarantee.
//!
//! # The in-place frame
//!
//! There is one frame writer and one frame reader. A frame is written in
//! place into a caller's buffer: [`ByteWriter::open_frame`] clears it and
//! writes a placeholder length, the magic and the version, the message
//! is encoded after them, and [`ByteWriter::close_frame`] patches the
//! length. [`WireCodec::read_payload_into`] reads a frame's payload into
//! a caller's buffer, with every check above made before the buffer
//! grows. [`Frame::from_payload`], [`WireCodec::write_payload`] and
//! [`WireCodec::read_payload`] are thin wrappers over the two, so a
//! connection that keeps its buffers frames every message without
//! allocating or copying its payload a second time.

use std::io::{Read, Write};

/// `"GHBA"` as a little-endian `u32` — the first payload word of every
/// frame.
pub const WIRE_MAGIC: u32 = u32::from_le_bytes(*b"GHBA");

/// Protocol version this build speaks. Version bumps are breaking:
/// a decoder rejects every other version with
/// [`WireError::UnsupportedVersion`].
pub const WIRE_VERSION: u16 = 1;

/// Hard ceiling on a frame's post-length payload. A length prefix above
/// this is rejected before any allocation: oversized prefixes are the
/// classic way a corrupt (or hostile) peer turns one bad word into an
/// out-of-memory.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Fixed header bytes inside the length-counted payload:
/// magic (4) + version (2) + tag (1).
const FRAME_HEADER: usize = 7;

/// Everything that can go wrong at the wire layer, typed.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed.
    Io(std::io::Error),
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    Oversized {
        /// The claimed payload length.
        len: u32,
        /// The ceiling it violated.
        max: u32,
    },
    /// The length prefix is too small to hold magic + version + tag.
    RuntFrame {
        /// The claimed payload length.
        len: u32,
    },
    /// The buffer ended before the frame (or a field inside it) did.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The first payload word was not [`WIRE_MAGIC`].
    BadMagic {
        /// The word found instead.
        found: u32,
    },
    /// The frame speaks a protocol version this build does not.
    UnsupportedVersion {
        /// The version found.
        found: u16,
    },
    /// The message tag names no known message type.
    UnknownTag {
        /// The tag found.
        tag: u8,
    },
    /// An enum discriminant inside a message body is out of range.
    UnknownEnum {
        /// Which enum was being decoded.
        what: &'static str,
        /// The discriminant found.
        value: u8,
    },
    /// A string field holds invalid UTF-8.
    BadUtf8,
    /// The message body decoded completely but bytes remain inside the
    /// frame — the peer and this decoder disagree about the layout.
    TrailingBytes {
        /// Leftover byte count.
        extra: usize,
    },
    /// A `PathKey`'s fingerprint does not match its pathname: the pair
    /// was corrupted in flight (or forged).
    CorruptFingerprint {
        /// The pathname whose fingerprint failed verification.
        path: String,
    },
    /// A reply arrived out of protocol (wrong type or sequence number
    /// for the pending request).
    Protocol {
        /// What the peer violated.
        detail: String,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o: {e}"),
            WireError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte ceiling")
            }
            WireError::RuntFrame { len } => {
                write!(f, "frame length {len} cannot hold the frame header")
            }
            WireError::Truncated { needed, available } => {
                write!(f, "truncated frame: needed {needed} bytes, had {available}")
            }
            WireError::BadMagic { found } => write!(f, "bad frame magic {found:#010x}"),
            WireError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported wire version {found} (speaking {WIRE_VERSION})"
                )
            }
            WireError::UnknownTag { tag } => write!(f, "unknown message tag {tag}"),
            WireError::UnknownEnum { what, value } => {
                write!(f, "unknown {what} discriminant {value}")
            }
            WireError::BadUtf8 => f.write_str("string field is not valid UTF-8"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the message body")
            }
            WireError::CorruptFingerprint { path } => {
                write!(f, "fingerprint does not match path {path:?}")
            }
            WireError::Protocol { detail } => write!(f, "protocol violation: {detail}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// A cursor over a frame body that returns [`WireError::Truncated`]
/// instead of panicking when the bytes run out.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps `buf` with the cursor at its start.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a length-prefixed UTF-8 string, borrowed from the frame.
    pub fn str_ref(&mut self) -> Result<&'a str, WireError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| WireError::BadUtf8)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, WireError> {
        self.str_ref().map(str::to_owned)
    }

    /// Asserts the body is fully consumed (the end-of-message check).
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes {
                extra: self.remaining(),
            });
        }
        Ok(())
    }
}

/// Append-only encoder into a caller's buffer (the write twin of
/// [`ByteReader`]).
///
/// [`ByteWriter::new`] appends a bare payload; [`ByteWriter::open_frame`]
/// is the one place a frame starts: it writes a placeholder length, the
/// magic and the version, the message is encoded after them in place,
/// and [`ByteWriter::close_frame`] patches the length. A connection that
/// keeps its buffer therefore frames every message without allocating
/// or copying the payload a second time.
#[derive(Debug)]
pub struct ByteWriter<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> ByteWriter<'a> {
    /// A writer appending to `buf`.
    #[must_use]
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        ByteWriter { buf }
    }

    /// Clears `buf` and opens a frame in it: placeholder length, magic,
    /// version. Encode the message, then [`close_frame`](Self::close_frame).
    #[must_use]
    pub fn open_frame(buf: &'a mut Vec<u8>) -> Self {
        buf.clear();
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&WIRE_MAGIC.to_le_bytes());
        buf.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        ByteWriter { buf }
    }

    /// Patches the length prefix of the frame [`open_frame`](Self::open_frame)
    /// started: everything after the prefix.
    pub fn close_frame(self) {
        debug_assert_eq!(
            self.buf[4..8],
            WIRE_MAGIC.to_le_bytes(),
            "not an open frame"
        );
        let len = (self.buf.len() - 4) as u32;
        self.buf[..4].copy_from_slice(&len.to_le_bytes());
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn string(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// One complete wire frame: length prefix + header + message body, as
/// the exact bytes that travel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    bytes: Vec<u8>,
}

impl Frame {
    /// Frames an already-encoded message payload (`tag` + body).
    #[must_use]
    pub fn from_payload(payload: &[u8]) -> Frame {
        let mut bytes = Vec::with_capacity(4 + FRAME_HEADER - 1 + payload.len());
        let mut w = ByteWriter::open_frame(&mut bytes);
        w.bytes(payload);
        w.close_frame();
        Frame { bytes }
    }

    /// Wraps the bytes of a frame [`ByteWriter::open_frame`] wrote and
    /// [`ByteWriter::close_frame`] closed.
    pub(crate) fn from_closed(bytes: Vec<u8>) -> Frame {
        Frame { bytes }
    }

    /// The full wire bytes (length prefix included).
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Parses one frame from the front of `bytes`, returning the
    /// message payload (`tag` + body) and the total bytes consumed.
    /// Never panics: every malformed prefix maps to a [`WireError`]
    /// (see the module docs for the full catalogue).
    pub fn parse(bytes: &[u8]) -> Result<(&[u8], usize), WireError> {
        let mut reader = ByteReader::new(bytes);
        let len = reader.u32()?;
        if len > MAX_FRAME_LEN {
            return Err(WireError::Oversized {
                len,
                max: MAX_FRAME_LEN,
            });
        }
        if (len as usize) < FRAME_HEADER {
            // Too short for magic + version + tag: no decodable message
            // can live here.
            return Err(WireError::RuntFrame { len });
        }
        if reader.remaining() < len as usize {
            return Err(WireError::Truncated {
                needed: len as usize,
                available: reader.remaining(),
            });
        }
        let magic = reader.u32()?;
        if magic != WIRE_MAGIC {
            return Err(WireError::BadMagic { found: magic });
        }
        let version = reader.u16()?;
        if version != WIRE_VERSION {
            return Err(WireError::UnsupportedVersion { found: version });
        }
        let payload_len = len as usize - (FRAME_HEADER - 1);
        let start = 4 + FRAME_HEADER - 1;
        Ok((&bytes[start..start + payload_len], 4 + len as usize))
    }
}

/// Stream-level codec: blocking frame reads/writes over any
/// `Read`/`Write` (a `TcpStream`, a unix pipe, an in-memory buffer).
#[derive(Debug)]
pub struct WireCodec;

impl WireCodec {
    /// Writes one frame carrying `payload` (`tag` + body) and flushes.
    pub fn write_payload(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
        w.write_all(Frame::from_payload(payload).bytes())?;
        w.flush()?;
        Ok(())
    }

    /// Reads one frame's message payload. Returns `Ok(None)` on a clean
    /// end-of-stream (the peer closed between frames); end-of-stream
    /// *inside* a frame is an error like any other short read.
    pub fn read_payload(r: &mut impl Read) -> Result<Option<Vec<u8>>, WireError> {
        let mut payload = Vec::new();
        Ok(Self::read_payload_into(r, &mut payload)?.then_some(payload))
    }

    /// Reads one frame's message payload into `payload`, replacing its
    /// contents and keeping its allocation. Returns `Ok(false)` on a
    /// clean end-of-stream between frames.
    pub fn read_payload_into(r: &mut impl Read, payload: &mut Vec<u8>) -> Result<bool, WireError> {
        let mut len_buf = [0u8; 4];
        let mut filled = 0;
        while filled < len_buf.len() {
            let n = r.read(&mut len_buf[filled..])?;
            if n == 0 {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(WireError::Truncated {
                    needed: len_buf.len(),
                    available: filled,
                });
            }
            filled += n;
        }
        let len = u32::from_le_bytes(len_buf);
        if len > MAX_FRAME_LEN {
            return Err(WireError::Oversized {
                len,
                max: MAX_FRAME_LEN,
            });
        }
        if (len as usize) < FRAME_HEADER {
            return Err(WireError::RuntFrame { len });
        }
        // Magic + version are checked from the stack before the buffer
        // grows, and the payload is read straight into it.
        let mut header = [0u8; FRAME_HEADER - 1];
        r.read_exact(&mut header)?;
        let mut reader = ByteReader::new(&header);
        let magic = reader.u32()?;
        if magic != WIRE_MAGIC {
            return Err(WireError::BadMagic { found: magic });
        }
        let version = reader.u16()?;
        if version != WIRE_VERSION {
            return Err(WireError::UnsupportedVersion { found: version });
        }
        // Only growth is zero-filled; `read_exact` overwrites the rest.
        payload.resize(len as usize - header.len(), 0);
        r.read_exact(payload)?;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips_through_parse() {
        let payload = [7u8, 1, 2, 3];
        let frame = Frame::from_payload(&payload);
        let (parsed, consumed) = Frame::parse(frame.bytes()).expect("well-formed");
        assert_eq!(parsed, payload);
        assert_eq!(consumed, frame.bytes().len());
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut bytes = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            Frame::parse(&bytes),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn runt_and_truncated_frames_are_typed() {
        let frame = Frame::from_payload(&[9u8]);
        let cut = &frame.bytes()[..frame.bytes().len() - 1];
        assert!(matches!(
            Frame::parse(cut),
            Err(WireError::Truncated { .. })
        ));
        let runt = 3u32.to_le_bytes();
        let mut bytes = runt.to_vec();
        bytes.extend_from_slice(&[0u8; 3]);
        assert!(matches!(
            Frame::parse(&bytes),
            Err(WireError::RuntFrame { .. })
        ));
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let mut frame = Frame::from_payload(&[1u8]).bytes().to_vec();
        frame[4] ^= 0xFF;
        assert!(matches!(
            Frame::parse(&frame),
            Err(WireError::BadMagic { .. })
        ));
        let mut frame = Frame::from_payload(&[1u8]).bytes().to_vec();
        frame[8] = 0xEE;
        assert!(matches!(
            Frame::parse(&frame),
            Err(WireError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn codec_round_trips_over_a_buffer_and_signals_clean_eof() {
        let mut buf = Vec::new();
        WireCodec::write_payload(&mut buf, &[42u8, 9]).expect("write");
        WireCodec::write_payload(&mut buf, &[7u8]).expect("write");
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(
            WireCodec::read_payload(&mut cursor).expect("first"),
            Some(vec![42, 9])
        );
        assert_eq!(
            WireCodec::read_payload(&mut cursor).expect("second"),
            Some(vec![7])
        );
        assert!(WireCodec::read_payload(&mut cursor).expect("eof").is_none());
    }

    #[test]
    fn mid_frame_eof_is_an_error_not_a_clean_close() {
        let mut buf = Vec::new();
        WireCodec::write_payload(&mut buf, &[1u8, 2, 3]).expect("write");
        buf.truncate(buf.len() - 2);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(WireCodec::read_payload(&mut cursor).is_err());
    }

    #[test]
    fn read_payload_into_reuses_its_buffer_and_refuses_before_growing() {
        let mut stream = Vec::new();
        WireCodec::write_payload(&mut stream, &[1u8; 40]).expect("write");
        WireCodec::write_payload(&mut stream, &[2u8, 3]).expect("write");
        let mut cursor = std::io::Cursor::new(stream);
        let mut payload = Vec::new();
        assert!(WireCodec::read_payload_into(&mut cursor, &mut payload).expect("first"));
        assert_eq!(payload, [1u8; 40]);
        let held = payload.as_ptr();
        assert!(WireCodec::read_payload_into(&mut cursor, &mut payload).expect("second"));
        assert_eq!(payload, [2, 3]);
        assert_eq!(
            payload.as_ptr(),
            held,
            "a shorter payload reuses the buffer"
        );
        assert!(!WireCodec::read_payload_into(&mut cursor, &mut payload).expect("eof"));

        let mut bytes = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 16]);
        let mut fresh = Vec::new();
        assert!(matches!(
            WireCodec::read_payload_into(&mut bytes.as_slice(), &mut fresh),
            Err(WireError::Oversized { .. })
        ));
        assert_eq!(fresh.capacity(), 0, "refused before any allocation");
    }

    #[test]
    fn an_open_frame_replaces_the_buffer_and_matches_from_payload() {
        let mut buf = vec![0xAA; 64];
        let mut w = ByteWriter::open_frame(&mut buf);
        w.u8(7);
        w.string("path");
        w.close_frame();
        let mut payload = Vec::new();
        let mut p = ByteWriter::new(&mut payload);
        p.u8(7);
        p.string("path");
        assert_eq!(buf, Frame::from_payload(&payload).bytes());
    }

    #[test]
    fn byte_reader_truncation_is_typed_everywhere() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(matches!(r.u64(), Err(WireError::Truncated { .. })));
        let mut r = ByteReader::new(&[5, 0, 0, 0, b'a']);
        assert!(matches!(r.string(), Err(WireError::Truncated { .. })));
        let mut r = ByteReader::new(&[2, 0, 0, 0, 0xFF, 0xFE]);
        assert!(matches!(r.string(), Err(WireError::BadUtf8)));
    }

    #[test]
    fn trailing_bytes_fail_finish() {
        let r = ByteReader::new(&[1, 2, 3]);
        assert!(matches!(
            r.finish(),
            Err(WireError::TrailingBytes { extra: 3 })
        ));
    }
}
