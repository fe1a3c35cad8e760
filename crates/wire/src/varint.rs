//! LEB128 varints and zigzag folding — the one home of every
//! byte-level integer codec helper in the crate.
//!
//! A frame's body length, machine id and window sequence, and a layout
//! frame's CPU count, decimation and event indices, are varints, read
//! one byte at a time by [`read_uvarint`]: each is one or two bytes in
//! a fleet stream, so the loop is short. Sample frames store their
//! deltas as zigzag values ([`zigzag`]) in fixed-width lanes instead
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

/// The LEB128 encoding of `v` as [`put_uvarint`] appends it: its
/// first `n` bytes, and `n`.
pub fn uvarint_bytes(mut v: u64) -> ([u8; MAX_VARINT_LEN], usize) {
    let mut bytes = [0u8; MAX_VARINT_LEN];
    let mut n = 0;
    while v >= 0x80 {
        bytes[n] = v as u8 | 0x80;
        v >>= 7;
        n += 1;
    }
    bytes[n] = v as u8;
    (bytes, n + 1)
}

/// Reads one LEB128 varint at `*pos`, advancing it past the encoding.
///
/// Returns `None` on buffer overrun or an encoding longer than
/// [`MAX_VARINT_LEN`] bytes (which no `u64` produces).
pub fn read_uvarint(buf: &[u8], pos: &mut usize) -> Option<u64> {
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
