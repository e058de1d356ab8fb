//! The frame and the log record: CRC32, the one frame writer and its
//! reader, and the record codec (the layout [`encode_record`] documents).

use ghba_bloom::Fingerprint;

use super::{WalError, WalEvent, WalRecord, MAX_FRAME_BYTES, WAL_VERSION};
use crate::codec::{ByteReader, ByteWriter, CodecError};
use crate::concurrent::{WriteKind, WriteRecord};
use crate::ids::MdsId;

/// Magic prefix of every WAL record body.
const WAL_MAGIC: [u8; 4] = *b"GWAL";

/// Record kind tags.
const KIND_DRAIN: u8 = 1;
const KIND_FLUSH: u8 = 2;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3 polynomial, reflected), slicing-by-8.
// ---------------------------------------------------------------------------

/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k][i]`
/// is the CRC state after byte `i` followed by `k` zero bytes, so eight
/// lookups — one per table — advance the state over eight input bytes.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// The IEEE CRC32 of `bytes` (the checksum guarding every frame), eight
/// bytes per step.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// The frame.
// ---------------------------------------------------------------------------

/// **The** frame writer: appends one `[len u32][crc u32][body]` frame to
/// `out`, letting `body` encode straight behind the reserved header and
/// patching length and checksum in afterwards — no second buffer.
///
/// # Errors
///
/// [`WalError::TooLarge`] when the body exceeds `cap`; `out` is then
/// back at its original length, so nothing of the refused frame can be
/// written anywhere.
pub(super) fn write_frame(
    out: &mut Vec<u8>,
    cap: usize,
    body: impl FnOnce(&mut ByteWriter<'_>) -> Result<(), CodecError>,
) -> Result<(), WalError> {
    let start = out.len();
    let mut w = ByteWriter::new(out);
    // The length counts the body only, not the checksum behind it.
    let len = w.reserve_len(4);
    let body_at = len.counted_from();
    body(&mut w)
        .and_then(|()| w.patch_len(len, cap))
        .inspect_err(|_| out.truncate(start))?;
    let crc = crc32(&out[body_at..]);
    out[body_at - 4..body_at].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Unframes one `[len][crc][body]` frame from the head of `bytes`,
/// returning the body slice and total bytes consumed.
pub(super) fn unframe(bytes: &[u8]) -> Result<(&[u8], usize), WalError> {
    let mut reader = ByteReader::new(bytes);
    let (Ok(len), Ok(expected_crc)) = (reader.u32(), reader.u32()) else {
        return Err(WalError::Corrupt("truncated frame header".into()));
    };
    let len = len as usize;
    if len > MAX_FRAME_BYTES {
        return Err(WalError::Corrupt(format!("frame length {len} exceeds cap")));
    }
    // Eight zero bytes would otherwise pass (the CRC of nothing is 0): a
    // zero-filled tail is a file extended by a write that never landed.
    if len == 0 {
        return Err(WalError::Corrupt("empty frame".into()));
    }
    let body = reader
        .take(len)
        .map_err(|_| WalError::Corrupt("truncated frame body".into()))?;
    if crc32(body) != expected_crc {
        return Err(WalError::Corrupt("frame checksum mismatch".into()));
    }
    Ok((body, 8 + len))
}

// ---------------------------------------------------------------------------
// Record codec.
// ---------------------------------------------------------------------------

/// Appends one framed record to `out` (layout: [`encode_record`]).
/// `drain` is the batch of a [`WalEvent::Drain`]; `None` is a
/// [`WalEvent::FlushAll`], which has no payload.
pub(super) fn write_record(
    out: &mut Vec<u8>,
    seq: u64,
    drain: Option<&[WriteRecord]>,
) -> Result<(), WalError> {
    write_frame(out, MAX_FRAME_BYTES, |w| {
        w.bytes(&WAL_MAGIC);
        w.u16(WAL_VERSION);
        w.u64(seq);
        let Some(records) = drain else {
            w.u8(KIND_FLUSH);
            return Ok(());
        };
        w.u8(KIND_DRAIN);
        w.list(records, |w, record| {
            let (op, home) = match record.kind {
                WriteKind::Create(home) => (0u8, home),
                WriteKind::Remove(home) => (1u8, home),
            };
            w.u8(op);
            w.u16(home.0);
            w.byte_str(record.path.as_bytes());
        });
        Ok(())
    })
}

/// Encodes one record as it is laid out on disk (the golden-file
/// surface): `[len u32][crc u32]["GWAL"][version u16][seq u64][kind u8]
/// [payload]`, all little-endian. A drain's payload is `[count u32]`
/// then `[op u8][home u16][path len u32][path]` per write: the path, not
/// its fingerprint — the decoder derives that, so a record's `fp` is not
/// stored.
///
/// # Panics
///
/// Panics if the record body exceeds the frame cap (256 MB).
#[must_use]
pub fn encode_record(seq: u64, event: &WalEvent) -> Vec<u8> {
    let drain = match event {
        WalEvent::Drain { records } => Some(records.as_slice()),
        WalEvent::FlushAll => None,
    };
    let mut out = Vec::new();
    write_record(&mut out, seq, drain).expect("record fits one frame");
    out
}

/// Decodes one record from the head of `bytes`, returning it and the
/// bytes consumed; each write's fingerprint is derived from its path
/// ([`Fingerprint::of`], once). Every malformed shape — truncation,
/// checksum mismatch, bad magic or version, non-utf-8 paths, an unknown
/// op or kind — is a typed [`WalError`], never a panic.
///
/// # Errors
///
/// [`WalError::Corrupt`] on any malformed byte sequence.
pub fn decode_record(bytes: &[u8]) -> Result<(WalRecord, usize), WalError> {
    let (body, consumed) = unframe(bytes)?;
    Ok((decode_body(body)?, consumed))
}

/// Decodes the body of one complete, CRC-valid frame.
pub(super) fn decode_body(body: &[u8]) -> Result<WalRecord, WalError> {
    let mut reader = ByteReader::new(body);
    if reader.take(4)? != WAL_MAGIC {
        return Err(WalError::Corrupt("bad record magic".into()));
    }
    let version = reader.u16()?;
    if version != WAL_VERSION {
        return Err(WalError::Corrupt(format!(
            "unsupported wal version {version}"
        )));
    }
    let seq = reader.u64()?;
    let event = match reader.u8()? {
        KIND_DRAIN => WalEvent::Drain {
            records: reader.list(1 << 16, |r| {
                let op = r.u8()?;
                let home = MdsId(r.u16()?);
                let path = r.str_ref()?;
                let kind = match op {
                    0 => WriteKind::Create(home),
                    1 => WriteKind::Remove(home),
                    other => return Err(WalError::Corrupt(format!("unknown write op {other}"))),
                };
                Ok(WriteRecord {
                    path: path.into(),
                    fp: Fingerprint::of(path),
                    kind,
                })
            })?,
        },
        KIND_FLUSH => WalEvent::FlushAll,
        other => return Err(WalError::Corrupt(format!("unknown record kind {other}"))),
    };
    reader.finish()?;
    Ok(WalRecord { seq, event })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The definition, one bit at a time: what the tables must agree with.
    fn crc32_reference(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in bytes {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & 0u32.wrapping_sub(crc & 1));
            }
        }
        !crc
    }

    /// Every way a slice can meet the 8-byte stride — each length 0..=70
    /// (no full word, a tail of every size, several words) at each start
    /// offset 0..8 — plus the known vectors and one large buffer.
    #[test]
    fn crc32_agrees_with_the_bitwise_reference() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut buffer = vec![0u8; 1 << 20];
        for byte in &mut buffer {
            // xorshift64: any fixed, byte-diverse stream will do.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *byte = (state >> 32) as u8;
        }
        for offset in 0..8 {
            for len in 0..=70 {
                // A region of its own per case, so the sweep's ≈ 2,500
                // words reach every entry of every table, not one prefix.
                let at = (offset * 71 + len) * 128 + offset;
                let slice = &buffer[at..at + len];
                assert_eq!(
                    crc32(slice),
                    crc32_reference(slice),
                    "offset {offset}, length {len}"
                );
            }
        }
        for known in [
            &b""[..],
            b"123456789",
            b"The quick brown fox jumps over the lazy dog",
        ] {
            assert_eq!(crc32(known), crc32_reference(known));
        }
        assert_eq!(crc32(&buffer), crc32_reference(&buffer), "1 MB buffer");
    }

    /// The frame writer at its cap reads back through [`unframe`], and a
    /// body one byte over it is the codec's refusal as a
    /// [`WalError::TooLarge`] with the buffer as it was (the cap itself
    /// is the codec's `a_region_one_byte_over_the_cap_is_refused`).
    #[test]
    fn the_frame_writer_refuses_a_body_over_the_cap() {
        let mut out = b"before".to_vec();
        write_frame(&mut out, 16, |w| {
            w.bytes(&[7; 16]);
            Ok(())
        })
        .expect("at the cap");
        let (body, consumed) = unframe(&out[6..]).expect("reads back");
        assert_eq!((body, consumed), (&[7u8; 16][..], 24));
        out.truncate(6);
        assert!(matches!(
            write_frame(&mut out, 16, |w| {
                w.bytes(&[7; 17]);
                Ok(())
            }),
            Err(WalError::TooLarge(detail)) if detail == "frame body of 17 bytes exceeds cap 16"
        ));
        assert_eq!(out, b"before");
    }

    #[test]
    fn record_round_trips() {
        let event = WalEvent::Drain {
            records: vec![
                WriteRecord {
                    path: "/a/b".into(),
                    fp: Fingerprint::of("/a/b"),
                    kind: WriteKind::Create(MdsId(3)),
                },
                WriteRecord {
                    path: "/a/b".into(),
                    fp: Fingerprint::of("/a/b"),
                    kind: WriteKind::Remove(MdsId(3)),
                },
            ],
        };
        let bytes = encode_record(7, &event);
        let (record, consumed) = decode_record(&bytes).expect("round trip");
        assert_eq!(consumed, bytes.len());
        assert_eq!(record, WalRecord { seq: 7, event });
    }

    #[test]
    fn flush_record_round_trips() {
        let bytes = encode_record(1, &WalEvent::FlushAll);
        let (record, _) = decode_record(&bytes).expect("round trip");
        assert_eq!(record.seq, 1);
        assert_eq!(record.event, WalEvent::FlushAll);
    }

    /// A record stores its path, not its fingerprint: one written with a
    /// fingerprint that is not its path's is byte-identical to the honest
    /// one and decodes to the path's own — a mismatched pair cannot reach
    /// the log, so there is nothing left for a decoder to re-verify.
    #[test]
    fn a_forged_fingerprint_is_not_stored() {
        let write = |fp| WalEvent::Drain {
            records: vec![WriteRecord {
                path: "/t/x".into(),
                fp,
                kind: WriteKind::Create(MdsId(0)),
            }],
        };
        let forged = encode_record(1, &write(Fingerprint::of("/t/OTHER")));
        let honest = write(Fingerprint::of("/t/x"));
        assert_eq!(forged, encode_record(1, &honest));
        let (record, _) = decode_record(&forged).expect("decodes");
        assert_eq!(record.event, honest);
        // Header, count, then `[op][home u16][len u32][path]`: no lanes.
        assert_eq!(
            forged.len(),
            8 + 4 + 2 + 8 + 1 + 4 + 1 + 2 + 4 + "/t/x".len()
        );
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let event = WalEvent::Drain {
            records: vec![WriteRecord {
                path: "/p/q".into(),
                fp: Fingerprint::of("/p/q"),
                kind: WriteKind::Create(MdsId(1)),
            }],
        };
        let bytes = encode_record(9, &event);
        for cut in 0..bytes.len() {
            assert!(
                decode_record(&bytes[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn every_bit_flip_is_a_typed_error_or_decodes_nothing_silently_wrong() {
        let event = WalEvent::Drain {
            records: vec![WriteRecord {
                path: "/flip/me".into(),
                fp: Fingerprint::of("/flip/me"),
                kind: WriteKind::Remove(MdsId(2)),
            }],
        };
        let clean = encode_record(3, &event);
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut dirty = clean.clone();
                dirty[byte] ^= 1 << bit;
                match decode_record(&dirty) {
                    // Flips in the length prefix can widen the frame; a
                    // *valid* decode must still be byte-faithful, which a
                    // CRC-checked body with matched length cannot fake.
                    Ok((record, _)) => {
                        panic!("bit flip {byte}:{bit} decoded silently: {record:?}")
                    }
                    Err(WalError::Corrupt(_)) => {}
                    Err(other) => panic!("unexpected error class: {other}"),
                }
            }
        }
    }
}
