//! LEB128 varints and zigzag folding — the one home of every
//! byte-level integer codec helper in the crate (the frame module
//! re-exports them for compatibility).
//!
//! Layout frames carry their event indices as varints, one value at a
//! time through [`read_uvarint`]: when ≥ 8 buffer bytes remain, a
//! single unaligned word load finds the terminator and three
//! shift/mask rounds (`compact7`) compact the payload bits; buffer
//! tails and > 8-byte encodings take the byte loop, whose own fast path
//! peels the 1- and 2-byte classes. Sample frames store their deltas as
//! zigzag values ([`zigzag`]) in fixed-width lanes instead
//! ([`crate::planar`]).

/// Longest LEB128 encoding of a `u64`.
pub const MAX_VARINT_LEN: usize = 10;

/// Appends the LEB128 encoding of `v` to `out`.
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Loads the 8-byte little-endian word at `p`, or `None` within 8
/// bytes of the buffer end. Total: decode paths run on
/// attacker-controlled bytes, so even "provably in range" loads go
/// through this instead of a panicking conversion.
#[inline]
fn load_word(buf: &[u8], p: usize) -> Option<u64> {
    buf.get(p..)?
        .first_chunk::<8>()
        .map(|c| u64::from_le_bytes(*c))
}

/// Reads one LEB128 varint at `*pos`, advancing it past the encoding.
///
/// Returns `None` on buffer overrun or an encoding longer than
/// [`MAX_VARINT_LEN`] bytes (which no `u64` produces).
///
/// Hot path: when at least 8 bytes remain, one unaligned word load
/// finds the terminator (first byte without the continuation bit) and
/// compacts the 7-bit groups with three shift/mask rounds — no
/// per-byte loop for the ≤ 8-byte encodings that dominate real streams
/// (values below 2⁵⁶). Longer encodings and buffer tails fall back to
/// the byte loop with identical semantics.
#[inline]
pub fn read_uvarint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let p = *pos;
    if let Some(word) = load_word(buf, p) {
        let stops = !word & 0x8080_8080_8080_8080;
        if stops != 0 {
            let len = (stops.trailing_zeros() as usize >> 3) + 1;
            let data = word & (u64::MAX >> (64 - 8 * len as u32));
            *pos = p + len;
            return Some(compact7(data));
        }
    }
    read_uvarint_slow(buf, pos)
}

/// Compacts up to eight 7-bit LEB128 groups (continuation bits still
/// set or not — they are masked off) into one value.
#[inline]
fn compact7(w: u64) -> u64 {
    let w = w & 0x7f7f_7f7f_7f7f_7f7f;
    let w = (w & 0x7f00_7f00_7f00_7f00) >> 1 | (w & 0x007f_007f_007f_007f);
    let w = (w & 0x3fff_0000_3fff_0000) >> 2 | (w & 0x0000_3fff_0000_3fff);
    (w & 0x0fff_ffff_0000_0000) >> 4 | (w & 0x0000_0000_0fff_ffff)
}

/// Fallback for encodings longer than 8 bytes or closer than 8 bytes
/// to the end of the buffer. Peels the 1- and 2-byte classes — which
/// dominate buffer tails exactly as they dominate everywhere else —
/// before the general byte loop, so the scalar baseline doesn't pay
/// loop overhead for the common case merely because a frame ends.
fn read_uvarint_slow(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let b0 = *buf.get(*pos)?;
    if b0 < 0x80 {
        *pos += 1;
        return Some(b0 as u64);
    }
    if let Some(&b1) = buf.get(*pos + 1) {
        if b1 < 0x80 {
            *pos += 2;
            return Some((b0 & 0x7f) as u64 | (b1 as u64) << 7);
        }
    }
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = buf.get(*pos)?;
        *pos += 1;
        if shift == 63 && b > 1 {
            return None; // overflows u64 (or a >10-byte encoding)
        }
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Zigzag-folds a signed delta into an unsigned value whose highest
/// set bit tracks the magnitude (small magnitudes of either sign
/// encode short).
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn varints_roundtrip() {
        let cases = [
            0u64,
            1,
            0x7f,
            0x80,
            0x3fff,
            0x4000,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut buf = Vec::new();
        for &v in &cases {
            put_uvarint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &cases {
            assert_eq!(read_uvarint(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_fast_and_slow_paths_agree() {
        // Every encoded length 1..=10, read both far from the buffer
        // tail (word fast path) and exactly at it (byte-loop fallback).
        let mut values = vec![0u64, 1];
        for s in 1..64 {
            values.extend([(1u64 << s) - 1, 1u64 << s, (1u64 << s) | 1]);
        }
        values.push(u64::MAX);
        for v in values {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            let padded: Vec<u8> = buf.iter().copied().chain([0u8; 16]).collect();
            let (mut a, mut b) = (0usize, 0usize);
            assert_eq!(read_uvarint(&padded, &mut a), Some(v), "fast path {v}");
            assert_eq!(read_uvarint(&buf, &mut b), Some(v), "tail path {v}");
            assert_eq!(a, b, "both paths consume the same bytes for {v}");
            assert_eq!(b, buf.len());
        }
    }

    #[test]
    fn varint_rejects_overruns_and_overflow() {
        let mut pos = 0;
        assert_eq!(read_uvarint(&[0x80, 0x80], &mut pos), None, "truncated");
        // 10 continuation bytes followed by a large final byte would
        // need a 71-bit value.
        let too_big = [0xff; 9]
            .iter()
            .copied()
            .chain([0x02u8])
            .collect::<Vec<_>>();
        let mut pos = 0;
        assert_eq!(read_uvarint(&too_big, &mut pos), None, "overflow");
    }

    #[test]
    fn zigzag_roundtrips_and_keeps_small_magnitudes_short() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 12345, -9876] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert!(zigzag(-3) < 0x80, "small negative delta fits one byte");
        // Wrapping delta arithmetic roundtrips across the full u64 range.
        let (prev, cur) = (5u64, u64::MAX);
        let delta = cur.wrapping_sub(prev) as i64;
        assert_eq!(prev.wrapping_add(unzigzag(zigzag(delta)) as u64), cur);
    }

    proptest! {
        /// zigzag ∘ varint round-trips arbitrary signed deltas through
        /// an actual byte buffer.
        #[test]
        fn zigzag_varint_roundtrip(deltas in proptest::collection::vec(any::<i64>(), 0..64)) {
            let mut buf = Vec::new();
            for &d in &deltas {
                put_uvarint(&mut buf, zigzag(d));
            }
            let mut pos = 0usize;
            for &want in &deltas {
                prop_assert_eq!(read_uvarint(&buf, &mut pos).map(unzigzag), Some(want));
            }
            prop_assert_eq!(pos, buf.len());
        }
    }
}
