//! The byte codec under the write-ahead log, the checkpoint and the wire
//! protocol (`ghba-net`'s `proto`): one reader, one writer, one error.
//!
//! Integers are little-endian; a string or byte string is a `u32` length
//! and its bytes (a string's are UTF-8). A frame's `u32` length is
//! written before its contents are known: [`ByteWriter::reserve_len`]
//! reserves it, the contents are encoded in place behind it, and
//! [`ByteWriter::patch_len`] writes it — or refuses it, typed, over the
//! frame's cap, with the buffer cut back to before the reservation. So no
//! caller can write a frame its reader would refuse.
//!
//! The reader never panics on foreign bytes: a read past the end is
//! [`CodecError::Truncated`], a string that is not UTF-8
//! [`CodecError::BadUtf8`], and bytes left after a message
//! [`CodecError::TrailingBytes`] at [`ByteReader::finish`]. The WAL and
//! the wire map these onto their own errors; what a value *means* (a
//! magic, a version, a discriminant) is theirs to check.

/// What can go wrong reading or writing codec bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The bytes ended before the value did.
    Truncated {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes that were left.
        available: usize,
    },
    /// A string field holds invalid UTF-8.
    BadUtf8,
    /// A complete message left bytes unread.
    TrailingBytes {
        /// Leftover byte count.
        extra: usize,
    },
    /// A length-prefixed region is longer than its cap (or a `u32`).
    TooLarge {
        /// The region's length.
        len: usize,
        /// The cap it exceeds.
        cap: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { needed, available } => {
                write!(f, "truncated: needed {needed} bytes, had {available}")
            }
            CodecError::BadUtf8 => f.write_str("string field is not valid UTF-8"),
            CodecError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the message")
            }
            CodecError::TooLarge { len, cap } => {
                write!(f, "frame body of {len} bytes exceeds cap {cap}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// A cursor over encoded bytes. Every read that runs past the end is a
/// [`CodecError::Truncated`] and consumes nothing.
#[derive(Debug)]
pub struct ByteReader<'a> {
    rest: &'a [u8],
}

impl<'a> ByteReader<'a> {
    /// Wraps `buf` with the cursor at its start.
    #[inline]
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { rest: buf }
    }

    /// Bytes not yet consumed.
    #[inline]
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` bytes, borrowed.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.rest.len() {
            return Err(self.truncated(n));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let Some((head, tail)) = self.rest.split_first_chunk::<N>() else {
            return Err(self.truncated(N));
        };
        self.rest = tail;
        Ok(*head)
    }

    #[cold]
    fn truncated(&self, needed: usize) -> CodecError {
        CodecError::Truncated {
            needed,
            available: self.rest.len(),
        }
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        self.array::<1>().map(|[b]| b)
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a length-prefixed byte string, borrowed.
    #[inline]
    pub fn byte_str(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads a length-prefixed string, borrowed and UTF-8-checked: the one
    /// check a decoded path gets on its way to a store.
    #[inline]
    pub fn str_ref(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.byte_str()?).map_err(|_| CodecError::BadUtf8)
    }

    /// Reads a length-prefixed UTF-8 string, owned.
    pub fn string(&mut self) -> Result<String, CodecError> {
        self.str_ref().map(str::to_owned)
    }

    /// Reads a `u32` count, then that many items with `item`. At most
    /// `max_prealloc` are allocated up front, so a hostile count cannot
    /// balloon memory before the bytes run out.
    #[inline]
    pub fn list<T, E: From<CodecError>>(
        &mut self,
        max_prealloc: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let n = self.u32()? as usize;
        let mut items = Vec::with_capacity(n.min(max_prealloc));
        for _ in 0..n {
            items.push(item(self)?);
        }
        Ok(items)
    }

    /// The end-of-message check: [`CodecError::TrailingBytes`] unless
    /// every byte was consumed.
    #[inline]
    pub fn finish(self) -> Result<(), CodecError> {
        match self.rest.len() {
            0 => Ok(()),
            extra => Err(CodecError::TrailingBytes { extra }),
        }
    }
}

/// A `u32` length reserved by [`ByteWriter::reserve_len`], written by
/// [`ByteWriter::patch_len`].
#[derive(Debug)]
#[must_use = "a reserved length stays zero until it is patched"]
pub struct LenSlot {
    at: usize,
    counted_from: usize,
}

impl LenSlot {
    /// Where the bytes the length counts begin (behind the prefix and any
    /// header reserved with it).
    #[must_use]
    pub fn counted_from(&self) -> usize {
        self.counted_from
    }
}

/// An append-only encoder into a caller's buffer, which keeps its
/// allocation across messages.
#[derive(Debug)]
pub struct ByteWriter<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> ByteWriter<'a> {
    /// A writer appending to `buf`.
    #[inline]
    #[must_use]
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        ByteWriter { buf }
    }

    /// The buffer, for an encoder of its own (a filter's serialization).
    /// It must only append.
    #[inline]
    pub fn buffer(&mut self) -> &mut Vec<u8> {
        self.buf
    }

    /// Appends raw bytes.
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a length-prefixed byte string. One longer than a `u32` can
    /// say fits no frame: the frame's [`patch_len`](Self::patch_len)
    /// refuses it.
    #[inline]
    pub fn byte_str(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.bytes(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.byte_str(s.as_bytes());
    }

    /// Appends a `u32` count, then each item with `item`.
    #[inline]
    pub fn list<I>(&mut self, items: I, mut item: impl FnMut(&mut Self, I::Item))
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
    {
        let items = items.into_iter();
        // A count over `u32::MAX` fits no frame (see `byte_str`).
        self.u32(items.len() as u32);
        for it in items {
            item(self, it);
        }
    }

    /// Reserves a `u32` length and, behind it, `header` zero bytes it will
    /// not count (a frame's checksum, the caller's to patch).
    #[inline]
    pub fn reserve_len(&mut self, header: usize) -> LenSlot {
        let at = self.buf.len();
        self.buf.resize(at + 4 + header, 0);
        LenSlot {
            at,
            counted_from: self.buf.len(),
        }
    }

    /// Writes `slot`'s length — every byte appended behind it — and
    /// returns it.
    ///
    /// # Errors
    ///
    /// [`CodecError::TooLarge`] when that exceeds `cap` or a `u32`; the
    /// buffer is then cut back to where the slot was reserved.
    #[inline]
    pub fn patch_len(&mut self, slot: LenSlot, cap: usize) -> Result<u32, CodecError> {
        let len = self.buf.len() - slot.counted_from;
        let Some(prefix) = u32::try_from(len).ok().filter(|_| len <= cap) else {
            self.buf.truncate(slot.at);
            return Err(CodecError::TooLarge { len, cap });
        };
        self.buf[slot.at..slot.at + 4].copy_from_slice(&prefix.to_le_bytes());
        Ok(prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One value of every accessor, in a fixed order.
    fn sample() -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = ByteWriter::new(&mut buf);
        w.u8(0xA5);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(0x0123_4567_89AB_CDEF);
        w.str("päth");
        w.byte_str(&[0xFF, 0x00]);
        w.bytes(b"raw");
        w.list([3u16, 4], |w, v| w.u16(v));
        buf
    }

    fn read_all(bytes: &[u8]) -> Result<(), CodecError> {
        let mut r = ByteReader::new(bytes);
        assert_eq!(r.u8()?, 0xA5);
        assert_eq!(r.u16()?, 0xBEEF);
        assert_eq!(r.u32()?, 0xDEAD_BEEF);
        assert_eq!(r.u64()?, 0x0123_4567_89AB_CDEF);
        assert_eq!(r.str_ref()?, "päth");
        assert_eq!(r.byte_str()?, [0xFF, 0x00]);
        assert_eq!(r.take(3)?, b"raw");
        assert_eq!(r.list(1, ByteReader::u16)?, [3, 4]);
        r.finish()
    }

    #[test]
    fn every_accessor_round_trips() {
        assert_eq!(read_all(&sample()), Ok(()));
        let mut buf = Vec::new();
        ByteWriter::new(&mut buf).str("owned");
        assert_eq!(ByteReader::new(&buf).string().as_deref(), Ok("owned"));
    }

    /// A cut at every byte is a typed truncation, never a panic, and it
    /// names what the failing read needed and what was left.
    #[test]
    fn a_cut_at_every_byte_is_typed() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    read_all(&bytes[..cut]),
                    Err(CodecError::Truncated { needed, available }) if available < needed
                ),
                "cut at {cut}"
            );
        }
        let mut r = ByteReader::new(&[1, 2]);
        assert_eq!(
            r.u64(),
            Err(CodecError::Truncated {
                needed: 8,
                available: 2
            })
        );
        assert_eq!(r.remaining(), 2, "a refused read consumes nothing");
        let mut r = ByteReader::new(&[5, 0, 0, 0, b'a']);
        assert!(matches!(r.string(), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn bad_utf8_and_trailing_bytes_are_typed() {
        let mut r = ByteReader::new(&[2, 0, 0, 0, 0xFF, 0xFE]);
        assert_eq!(r.str_ref(), Err(CodecError::BadUtf8));
        let mut r = ByteReader::new(&[2, 0, 0, 0, 0xFF, 0xFE]);
        assert_eq!(r.string(), Err(CodecError::BadUtf8));
        let r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.finish(), Err(CodecError::TrailingBytes { extra: 3 }));
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.finish(), Err(CodecError::TrailingBytes { extra: 2 }));
    }

    /// The encode side enforces the cap the decode side checks: a region
    /// of exactly `cap` bytes is written, one byte over it is refused,
    /// typed, with the buffer as it was before the reservation.
    #[test]
    fn a_region_one_byte_over_the_cap_is_refused() {
        let mut out = b"before".to_vec();
        let mut w = ByteWriter::new(&mut out);
        let slot = w.reserve_len(0);
        w.bytes(&[7; 16]);
        assert_eq!(w.patch_len(slot, 16), Ok(16));
        assert_eq!(&out[6..10], 16u32.to_le_bytes());
        assert_eq!(out.len(), 6 + 4 + 16);

        out.truncate(6);
        let mut w = ByteWriter::new(&mut out);
        let slot = w.reserve_len(0);
        w.bytes(&[7; 17]);
        assert_eq!(
            w.patch_len(slot, 16),
            Err(CodecError::TooLarge { len: 17, cap: 16 })
        );
        assert_eq!(out, b"before");
    }

    /// A header reserved with the length is not counted, and a slot
    /// inside a slot counts its own region only.
    #[test]
    fn a_reserved_header_is_not_counted_and_slots_nest() {
        let mut out = Vec::new();
        let mut w = ByteWriter::new(&mut out);
        let outer = w.reserve_len(4);
        assert_eq!(outer.counted_from(), 8);
        w.u8(1);
        let inner = w.reserve_len(0);
        w.bytes(b"abc");
        assert_eq!(w.patch_len(inner, 3), Ok(3));
        assert_eq!(w.patch_len(outer, usize::MAX), Ok(8));
        let mut r = ByteReader::new(&out);
        assert_eq!(r.u32(), Ok(8));
        assert_eq!(r.u32(), Ok(0), "the header is left for its owner");
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.byte_str(), Ok(&b"abc"[..]));
        assert_eq!(r.finish(), Ok(()));
    }
}
