//! File paths for the bit-identical suites, spread over 1 to 64 bytes
//! and mixing one-, two- and three-byte characters, so paths on both
//! sides of `INLINE_PATH_BYTES` (held inline, or boxed) run through
//! every code path. Included by `crates/core/tests/{properties,wal}.rs`
//! and `crates/net/tests/properties.rs`.

use ghba_core::INLINE_PATH_BYTES;

/// Padding characters of one, two and three bytes; none is a digit.
const PIECES: [&str; 5] = ["-", "€", "a", "é", "/"];

/// File `id`'s path under `dir`: `/{dir}/f{id}` padded to a length that
/// is a function of `id`, so one id always names one path. Ids ≡ 0
/// (mod 16) are exactly `INLINE_PATH_BYTES` long and ids ≡ 1 one byte
/// longer, the last character a two-byte `é` straddling the capacity;
/// the rest spread over 1..=64 bytes (never shorter than the unpadded
/// path). Padding never starts with a digit, so distinct ids stay
/// distinct paths.
pub fn path_of(dir: &str, id: u32) -> String {
    let len = match id % 16 {
        0 => INLINE_PATH_BYTES,
        1 => INLINE_PATH_BYTES + 1,
        _ => (id as usize).wrapping_mul(37) % 64 + 1,
    };
    let mut path = format!("/{dir}/f{id}");
    let target = len.max(path.len());
    let mut pieces = PIECES.iter().cycle();
    while target - path.len() > 2 {
        let piece = pieces.next().expect("cycles");
        if path.len() + piece.len() + 2 <= target {
            path.push_str(piece);
        } else {
            path.push('x');
        }
    }
    match target - path.len() {
        2 => path.push('é'),
        1 => path.push('x'),
        _ => {}
    }
    path
}
