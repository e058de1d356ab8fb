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
//! The reader never panics on foreign bytes. Every malformed shape maps
//! to a typed [`WireError`]:
//!
//! * a length prefix above [`MAX_FRAME_LEN`] → [`WireError::Oversized`]
//!   (rejected *before* allocating, so a hostile 4 GiB prefix cannot
//!   balloon memory);
//! * a length too short to hold the fixed header →
//!   [`WireError::RuntFrame`];
//! * wrong magic / unsupported version / unknown message tag →
//!   [`WireError::BadMagic`] / [`WireError::UnsupportedVersion`] /
//!   [`WireError::UnknownTag`];
//! * a field that runs past the end of its payload →
//!   [`WireError::Truncated`]; bytes left over after a complete message
//!   body → [`WireError::TrailingBytes`].
//!
//! A stream that ends is read as the sockets see it:
//!
//! * at a frame boundary, it is a clean end of stream (`Ok(false)`);
//! * inside the 4-byte length prefix, it is [`WireError::Truncated`];
//! * after the length prefix, it is [`WireError::Io`] with
//!   [`UnexpectedEof`](std::io::ErrorKind::UnexpectedEof): a transport
//!   loss, which the client reconnects on and a server closes the
//!   connection on without a reply.
//!
//! The property suite (`tests/properties.rs`) pins both lists through
//! [`read_payload_into`], the reader the sockets run.
//!
//! # The byte layer
//!
//! Integers, strings and lengths go through [`ghba_core::codec`], the
//! codec the write-ahead log and the checkpoint use too. This module
//! adds the wire's own: the magic, the version and the frame cap.
//!
//! # The in-place frame
//!
//! There is one frame writer and one frame reader. A frame is written in
//! place into a caller's buffer: [`open_frame`] clears it, reserves the
//! length and writes the magic and the version, the message is encoded
//! after them, and [`close_frame`] patches the length — or refuses a
//! frame over [`MAX_FRAME_LEN`] with [`WireError::Oversized`] and leaves
//! the buffer empty, so the encoder never writes a frame its reader
//! refuses. A frame is sent with one `write_all` of that buffer.
//! [`read_payload_into`] reads a frame's payload into a caller's buffer,
//! with every check above made before the buffer grows, so a connection
//! that keeps its buffers frames and reads every message without
//! allocating.

use std::io::Read;

use ghba_core::codec::{ByteReader, ByteWriter, CodecError, LenSlot};

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
    /// The stream ended inside a frame's length prefix, or a field ran
    /// past the end of its payload.
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

/// The codec's typed failures as the wire reports them (a frame over
/// the cap is refused on the way out as it is on the way in).
impl From<CodecError> for WireError {
    fn from(err: CodecError) -> Self {
        match err {
            CodecError::Truncated { needed, available } => {
                WireError::Truncated { needed, available }
            }
            CodecError::BadUtf8 => WireError::BadUtf8,
            CodecError::TrailingBytes { extra } => WireError::TrailingBytes { extra },
            CodecError::TooLarge { len, cap } => WireError::Oversized {
                len: len.min(u32::MAX as usize) as u32,
                max: cap.min(u32::MAX as usize) as u32,
            },
        }
    }
}

/// Clears `buf` and opens a frame in it: the reserved length, the magic
/// and the version. Encode the message with the returned writer, then
/// [`close_frame`].
pub fn open_frame(buf: &mut Vec<u8>) -> (ByteWriter<'_>, LenSlot) {
    buf.clear();
    let mut w = ByteWriter::new(buf);
    let len = w.reserve_len(0);
    w.u32(WIRE_MAGIC);
    w.u16(WIRE_VERSION);
    (w, len)
}

/// Patches the length of the frame [`open_frame`] started: everything
/// after the prefix. A frame over [`MAX_FRAME_LEN`], which every reader
/// refuses, is [`WireError::Oversized`] and leaves the buffer empty.
pub fn close_frame(mut w: ByteWriter<'_>, len: LenSlot) -> Result<(), WireError> {
    w.patch_len(len, MAX_FRAME_LEN as usize)?;
    Ok(())
}

/// The checks a length prefix gets before anything it counts is read.
fn check_len(len: u32) -> Result<usize, WireError> {
    if len > MAX_FRAME_LEN {
        return Err(WireError::Oversized {
            len,
            max: MAX_FRAME_LEN,
        });
    }
    if (len as usize) < FRAME_HEADER {
        // Too short for magic + version + tag: no decodable message can
        // live here.
        return Err(WireError::RuntFrame { len });
    }
    Ok(len as usize)
}

/// Reads and checks the magic and the version behind the length.
fn check_header(reader: &mut ByteReader<'_>) -> Result<(), WireError> {
    let magic = reader.u32()?;
    if magic != WIRE_MAGIC {
        return Err(WireError::BadMagic { found: magic });
    }
    let version = reader.u16()?;
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion { found: version });
    }
    Ok(())
}

/// The one frame reader: reads one frame off `r` and leaves its message
/// payload (`tag` + body) in `payload`, replacing its contents and
/// keeping its allocation. The length and the header are checked before
/// the buffer grows. Returns `Ok(false)` on a clean end of stream between
/// frames; see the module docs for what a stream cut mid-frame returns.
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
    let len = check_len(u32::from_le_bytes(len_buf))?;
    // Magic + version are checked from the stack before the buffer
    // grows, and the payload is read straight into it.
    let mut header = [0u8; FRAME_HEADER - 1];
    r.read_exact(&mut header)?;
    check_header(&mut ByteReader::new(&header))?;
    // Only growth is zero-filled; `read_exact` overwrites the rest.
    payload.resize(len - header.len(), 0);
    r.read_exact(payload)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The frame of `payload`, written in place.
    fn frame(payload: &[u8]) -> Result<Vec<u8>, WireError> {
        let mut buf = Vec::new();
        let (mut w, len) = open_frame(&mut buf);
        w.bytes(payload);
        close_frame(w, len)?;
        Ok(buf)
    }

    /// The wire bytes of `payloads`, framed back to back.
    fn stream(payloads: &[&[u8]]) -> Result<Vec<u8>, WireError> {
        let mut bytes = Vec::new();
        for payload in payloads {
            bytes.extend_from_slice(&frame(payload)?);
        }
        Ok(bytes)
    }

    /// `read_payload_into` over `bytes` from the front: the payload, or
    /// the error.
    fn read_one(bytes: &[u8]) -> Result<Vec<u8>, WireError> {
        let mut payload = Vec::new();
        match read_payload_into(&mut &bytes[..], &mut payload)? {
            true => Ok(payload),
            false => panic!("{} bytes read as a clean end of stream", bytes.len()),
        }
    }

    #[test]
    fn frame_round_trips_through_the_reader() -> Result<(), WireError> {
        let payload = [7u8, 1, 2, 3];
        let bytes = frame(&payload)?;
        assert_eq!(bytes.len(), 4 + FRAME_HEADER - 1 + payload.len());
        let mut cursor = bytes.as_slice();
        let mut read = Vec::new();
        assert!(read_payload_into(&mut cursor, &mut read)?);
        assert_eq!(read, payload);
        assert!(cursor.is_empty(), "the reader takes the frame whole");
        Ok(())
    }

    /// The encoder holds the reader's cap: a frame whose length is
    /// exactly [`MAX_FRAME_LEN`] closes and reads, one byte more is
    /// refused with the buffer left empty.
    #[test]
    fn a_frame_over_the_cap_is_refused_on_the_way_out() -> Result<(), WireError> {
        let at_cap = MAX_FRAME_LEN as usize - (FRAME_HEADER - 1);
        let payload = vec![3u8; at_cap + 1];
        assert_eq!(read_one(&frame(&payload[..at_cap])?)?.len(), at_cap);
        let mut buf = Vec::new();
        let (mut w, len) = open_frame(&mut buf);
        w.bytes(&payload);
        assert!(matches!(
            close_frame(w, len),
            Err(WireError::Oversized { len, max: MAX_FRAME_LEN }) if len == MAX_FRAME_LEN + 1
        ));
        assert!(buf.is_empty(), "nothing of the refused frame is left");
        Ok(())
    }

    /// A cut inside the length prefix is `Truncated`; one after it is
    /// the transport's `UnexpectedEof`; a runt length is refused.
    #[test]
    fn runt_and_cut_frames_are_typed() -> Result<(), WireError> {
        let bytes = frame(&[9u8])?;
        assert!(matches!(
            read_one(&bytes[..3]),
            Err(WireError::Truncated {
                needed: 4,
                available: 3
            })
        ));
        for cut in [4, 6, bytes.len() - 1] {
            assert!(
                matches!(read_one(&bytes[..cut]), Err(WireError::Io(ref e))
                    if e.kind() == std::io::ErrorKind::UnexpectedEof),
                "cut at {cut}"
            );
        }
        let mut runt = 3u32.to_le_bytes().to_vec();
        runt.extend_from_slice(&[0u8; 3]);
        assert!(matches!(
            read_one(&runt),
            Err(WireError::RuntFrame { len: 3 })
        ));
        Ok(())
    }

    #[test]
    fn bad_magic_and_version_are_typed() -> Result<(), WireError> {
        let mut bytes = frame(&[1u8])?;
        bytes[4] ^= 0xFF;
        assert!(matches!(read_one(&bytes), Err(WireError::BadMagic { .. })));
        let mut bytes = frame(&[1u8])?;
        bytes[8] = 0xEE;
        assert!(matches!(
            read_one(&bytes),
            Err(WireError::UnsupportedVersion { found: 0xEE })
        ));
        Ok(())
    }

    #[test]
    fn read_payload_into_reuses_its_buffer_and_refuses_before_growing() -> Result<(), WireError> {
        let bytes = stream(&[&[1u8; 40], &[2u8, 3]])?;
        let mut cursor = bytes.as_slice();
        let mut payload = Vec::new();
        assert!(read_payload_into(&mut cursor, &mut payload)?);
        assert_eq!(payload, [1u8; 40]);
        let held = payload.as_ptr();
        assert!(read_payload_into(&mut cursor, &mut payload)?);
        assert_eq!(payload, [2, 3]);
        assert_eq!(
            payload.as_ptr(),
            held,
            "a shorter payload reuses the buffer"
        );
        assert!(!read_payload_into(&mut cursor, &mut payload)?);

        let mut bytes = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 16]);
        let mut fresh = Vec::new();
        assert!(matches!(
            read_payload_into(&mut bytes.as_slice(), &mut fresh),
            Err(WireError::Oversized { .. })
        ));
        assert_eq!(fresh.capacity(), 0, "refused before any allocation");
        Ok(())
    }

    #[test]
    fn an_open_frame_replaces_the_buffer() -> Result<(), WireError> {
        let mut buf = vec![0xAA; 64];
        let (mut w, len) = open_frame(&mut buf);
        w.u8(7);
        w.str("path");
        close_frame(w, len)?;
        let mut payload = Vec::new();
        let mut p = ByteWriter::new(&mut payload);
        p.u8(7);
        p.str("path");
        assert_eq!(buf.len(), 4 + FRAME_HEADER - 1 + payload.len());
        assert_eq!(read_one(&buf)?, payload);
        Ok(())
    }

    /// Each codec failure lands on the wire variant of the same name; a
    /// region over its cap is [`WireError::Oversized`].
    #[test]
    fn codec_errors_map_onto_wire_errors() {
        assert!(matches!(
            WireError::from(CodecError::Truncated {
                needed: 8,
                available: 2
            }),
            WireError::Truncated {
                needed: 8,
                available: 2
            }
        ));
        assert!(matches!(
            WireError::from(CodecError::BadUtf8),
            WireError::BadUtf8
        ));
        assert!(matches!(
            WireError::from(CodecError::TrailingBytes { extra: 3 }),
            WireError::TrailingBytes { extra: 3 }
        ));
        assert!(matches!(
            WireError::from(CodecError::TooLarge { len: 17, cap: 16 }),
            WireError::Oversized { len: 17, max: 16 }
        ));
        assert!(matches!(
            WireError::from(CodecError::TooLarge {
                len: usize::MAX,
                cap: 16
            }),
            WireError::Oversized {
                len: u32::MAX,
                max: 16
            }
        ));
    }
}
