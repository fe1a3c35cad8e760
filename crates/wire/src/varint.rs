//! LEB128 varints and zigzag folding — the one home of every
//! byte-level integer codec helper in the crate (the frame module
//! re-exports them for compatibility).
//!
//! Three decode tiers, all with identical semantics:
//!
//! * [`read_uvarint`] — one value. When ≥ 8 buffer bytes remain, a
//!   single unaligned word load finds the terminator and three
//!   shift/mask rounds (`compact7`) compact the payload bits; buffer
//!   tails and > 8-byte encodings take the byte loop, whose own fast
//!   path peels the 1- and 2-byte classes that dominate real streams.
//! * [`read_uvarints`] — a run of values, dispatch-gated
//!   ([`tdp_simd::Dispatch`]). The wide flavour extracts *every*
//!   complete varint from each 8-byte window before reloading —
//!   typically 4–8 per load for the 1–2-byte encodings a delta stream
//!   produces — so the load/terminator-scan cost is amortised across
//!   the lane instead of paid per value. Pure shift/mask SWAR on
//!   `u64`s: no unsafe, no hardware gate; the dispatch knob exists so
//!   the CI equivalence matrix can force either flavour.
//! * the byte loop — the reference semantics both of the above fall
//!   back to and are tested against.

use crate::frame::PayloadChecksum;
use tdp_simd::Dispatch;

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

/// Decodes `dst.len()` consecutive varints starting at `*pos`,
/// advancing it past them — the bulk form a frame's per-CPU count rows
/// decode through.
///
/// Values, final position, and success/failure are identical to
/// `dst.len()` sequential [`read_uvarint`] calls in both dispatch
/// flavours (the values are integers — there is no arithmetic to
/// reassociate). On `None` (truncated or over-long encoding), `*pos`
/// and the tail of `dst` are unspecified, matching the sequential
/// contract.
#[inline]
pub fn read_uvarints(d: Dispatch, buf: &[u8], pos: &mut usize, dst: &mut [u64]) -> Option<()> {
    match d {
        Dispatch::Scalar => {
            for v in dst {
                *v = read_uvarint(buf, pos)?;
            }
            Some(())
        }
        Dispatch::Wide => read_uvarints_wide(buf, pos, dst),
    }
}

/// Word-batched decode: each 8-byte load yields every varint that ends
/// inside it — typically four to eight for the 1–2-byte encodings a
/// delta stream produces — so only the window advance is loop-carried.
///
/// Terminators are cleared from the stops mask one `stops & (stops − 1)`
/// at a time and each varint's bytes are masked out of the already
/// loaded word; no class-specialised branches (an 8×1-byte and a
/// 4×2-byte whole-window fold were both measured slower than this
/// uniform greedy extraction, as was a 16-byte `u128` double-word
/// window — the wider shifts and terminator scans cost more than the
/// halved reload count saves, even on 5-byte-heavy payloads). A varint
/// straddling the window boundary is simply re-read in the next window;
/// one with no terminator in sight (a > 8-byte encoding) or too few
/// buffer bytes for a word load degrades to [`read_uvarint`] for that
/// value alone.
fn read_uvarints_wide(buf: &[u8], pos: &mut usize, dst: &mut [u64]) -> Option<()> {
    const STOP: u64 = 0x8080_8080_8080_8080;
    let mut p = *pos;
    let mut i = 0;
    'outer: while i < dst.len() {
        if let Some(word) = load_word(buf, p) {
            let mut stops = !word & STOP;
            let mut off = 0usize;
            while stops != 0 {
                let end = ((stops.trailing_zeros() as usize) >> 3) + 1;
                let len = end - off;
                let data = (word >> (8 * off)) & (u64::MAX >> (64 - 8 * len as u32));
                dst[i] = compact7(data);
                i += 1;
                p += len;
                off = end;
                if i == dst.len() {
                    break 'outer;
                }
                stops &= stops - 1;
            }
            if off != 0 {
                continue; // window exhausted: reload at the new `p`
            }
        }
        // No terminator in the window (> 8-byte encoding) or < 8 bytes
        // left: decode this one value through the scalar path.
        *pos = p;
        dst[i] = read_uvarint(buf, pos)?;
        p = *pos;
        i += 1;
    }
    *pos = p;
    Some(())
}

/// [`read_uvarints`] fused with checksum absorption: as the varint walk
/// passes each byte position, the [`PayloadChecksum`] absorbs the
/// complete 16-byte chunks behind it — so a frame's payload is read
/// once, while the bytes are hot, and the checksum's serial mix chain
/// overlaps the varint extraction instead of running as its own pass.
///
/// Decoded values, final position, and success/failure are identical to
/// [`read_uvarints`] in both dispatch flavours, and the checksum state
/// after any outcome is a valid partial absorption (the caller's
/// [`finish`](PayloadChecksum::finish) completes it), so interleaving
/// cannot change either result.
#[inline]
pub(crate) fn read_uvarints_ck(
    d: Dispatch,
    buf: &[u8],
    pos: &mut usize,
    dst: &mut [u64],
    ck: &mut PayloadChecksum,
) -> Option<()> {
    match d {
        Dispatch::Scalar => {
            for v in dst {
                *v = read_uvarint(buf, pos)?;
                ck.absorb_to(buf, *pos);
            }
            Some(())
        }
        Dispatch::Wide => read_uvarints_wide_ck(buf, pos, dst, ck),
    }
}

/// [`read_uvarints_wide`] with the checksum absorb folded in at window
/// cadence (one `absorb_to` per 8-byte reload, i.e. per 4–8 decoded
/// values on real delta streams) and a **speculative window advance**:
/// when every varint ending in the window fits `dst`, the next window
/// position is computed from the stops mask alone (`8 − lzcnt/8`,
/// three ops after the load) *before* any value is extracted, so the
/// loop-carried dependency is load → mask → count rather than the full
/// per-varint tzcnt/advance chain — the next load issues while the
/// current window's values are still being compacted.
///
/// Measured on the `repro --wire 1024 --frame varint` fused path
/// (back-to-back A/B on this container, median of 3 runs each): the
/// `stage_varint` share drops ~148 → ~139 ns/machine-window and the
/// fused leg ~315 → ~303 — a real but modest ~6% win; the per-varint
/// extraction itself still bounds the path, which is why the planar
/// format exists. Recorded like the negative u128 result on
/// [`read_uvarints_wide`]: the varint chain's remaining cost is
/// structural, not an artefact of this loop's shape.
fn read_uvarints_wide_ck(
    buf: &[u8],
    pos: &mut usize,
    dst: &mut [u64],
    ck: &mut PayloadChecksum,
) -> Option<()> {
    const STOP: u64 = 0x8080_8080_8080_8080;
    let mut p = *pos;
    let mut i = 0;
    'outer: while i < dst.len() {
        if let Some(word) = load_word(buf, p) {
            let mut stops = !word & STOP;
            if stops != 0 && (stops.count_ones() as usize) <= dst.len() - i {
                // Whole window fits: advance `p` speculatively from the
                // mask and only then extract, breaking the serial
                // extract→advance recurrence between windows.
                p += 8 - ((stops.leading_zeros() as usize) >> 3);
                let mut off = 0usize;
                while stops != 0 {
                    let end = ((stops.trailing_zeros() as usize) >> 3) + 1;
                    let len = end - off;
                    let data = (word >> (8 * off)) & (u64::MAX >> (64 - 8 * len as u32));
                    dst[i] = compact7(data);
                    i += 1;
                    off = end;
                    stops &= stops - 1;
                }
                ck.absorb_to(buf, p);
                continue;
            }
            // `dst` fills mid-window: the tail greedy walk advances per
            // varint so `p` lands exactly past the last value consumed.
            let mut off = 0usize;
            while stops != 0 {
                let end = ((stops.trailing_zeros() as usize) >> 3) + 1;
                let len = end - off;
                let data = (word >> (8 * off)) & (u64::MAX >> (64 - 8 * len as u32));
                dst[i] = compact7(data);
                i += 1;
                p += len;
                off = end;
                if i == dst.len() {
                    break 'outer;
                }
                stops &= stops - 1;
            }
            if off != 0 {
                ck.absorb_to(buf, p);
                continue; // window exhausted: reload at the new `p`
            }
        }
        // No terminator in the window (> 8-byte encoding) or < 8 bytes
        // left: decode this one value through the scalar path.
        *pos = p;
        dst[i] = read_uvarint(buf, pos)?;
        p = *pos;
        ck.absorb_to(buf, p);
        i += 1;
    }
    *pos = p;
    ck.absorb_to(buf, p);
    Some(())
}

/// Zigzag-folds a signed delta into an unsigned varint-friendly value
/// (small magnitudes of either sign encode short).
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
        // The batched decoder agrees on both failure shapes.
        for bad in [vec![0x80u8, 0x80], too_big] {
            let mut pos = 0;
            let mut dst = [0u64; 1];
            assert_eq!(read_uvarints_wide(&bad, &mut pos, &mut dst), None);
        }
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

    /// Both dispatch flavours of the bulk decoder against the scalar
    /// reference, on the exact shape frames produce: a run of values,
    /// read to the very last buffer byte (no padding — the tail class
    /// is always exercised).
    fn assert_bulk_matches(values: &[u64]) {
        let mut buf = Vec::new();
        for &v in values {
            put_uvarint(&mut buf, v);
        }
        let mut reference = vec![0u64; values.len()];
        let mut ref_pos = 0usize;
        for r in &mut reference {
            *r = read_uvarint(&buf, &mut ref_pos).expect("reference decode");
        }
        for d in [Dispatch::Scalar, Dispatch::Wide] {
            let mut out = vec![0u64; values.len()];
            let mut pos = 0usize;
            assert_eq!(read_uvarints(d, &buf, &mut pos, &mut out), Some(()));
            assert_eq!(out, reference, "{d:?} values");
            assert_eq!(pos, ref_pos, "{d:?} final position");
            assert_eq!(pos, buf.len());
        }
    }

    proptest! {
        /// Satellite property: zigzag ∘ varint round-trips arbitrary
        /// signed deltas through an actual byte buffer, in both bulk
        /// dispatch flavours.
        #[test]
        fn zigzag_varint_roundtrip(deltas in proptest::collection::vec(any::<i64>(), 0..64)) {
            let mut buf = Vec::new();
            for &d in &deltas {
                put_uvarint(&mut buf, zigzag(d));
            }
            for disp in [Dispatch::Scalar, Dispatch::Wide] {
                let mut out = vec![0u64; deltas.len()];
                let mut pos = 0usize;
                prop_assert_eq!(read_uvarints(disp, &buf, &mut pos, &mut out), Some(()));
                prop_assert_eq!(pos, buf.len());
                for (&got, &want) in out.iter().zip(&deltas) {
                    prop_assert_eq!(unzigzag(got), want);
                }
            }
        }

        /// Bulk decode ≡ sequential decode for arbitrary value runs —
        /// the class draw skews toward the 1–3-byte encodings frames
        /// produce but includes full-range values, so windows split at
        /// every alignment.
        #[test]
        fn bulk_decode_matches_sequential(
            picks in proptest::collection::vec((0u8..4, any::<u64>()), 0..96)
        ) {
            let values: Vec<u64> = picks
                .iter()
                .map(|&(class, raw)| match class {
                    0 => raw % 0x80,                            // 1-byte class
                    1 => 0x80 + raw % (0x4000 - 0x80),          // 2-byte class
                    2 => 0x4000 + raw % (0x0020_0000 - 0x4000), // 3-byte class
                    _ => raw,                                   // up to 10 bytes
                })
                .collect();
            assert_bulk_matches(&values);
        }
    }

    /// The checksum-fused bulk decoder must agree with the plain one on
    /// values, final position, success/failure, *and* produce the exact
    /// one-shot checksum — in both dispatch flavours, on clean runs and
    /// on both failure shapes.
    #[test]
    fn fused_decode_matches_plain_and_one_shot_checksum() {
        use crate::frame::{FrameHeader, FrameType};
        let header = |len: usize| FrameHeader {
            frame_type: FrameType::Sample,
            payload_len: len as u32,
            machine_id: 7,
            window_seq: 99,
            layout_hash: 0xabcd,
            cpu_count: 4,
            n_events: 9,
            checksum: 0,
        };
        let shapes: Vec<Vec<u64>> = vec![
            vec![],
            vec![0; 40],
            vec![0x80; 40],
            vec![u64::MAX; 7],
            vec![1, u64::MAX, 2, 1 << 62, 3],
            (0..96).map(|i| (i * i * 37) as u64).collect(),
        ];
        for values in &shapes {
            let mut buf = Vec::new();
            for &v in values {
                put_uvarint(&mut buf, v);
            }
            let h = header(buf.len());
            let want_sum = h.expected_checksum(&buf);
            for d in [Dispatch::Scalar, Dispatch::Wide] {
                let mut plain = vec![0u64; values.len()];
                let mut plain_pos = 0usize;
                assert_eq!(read_uvarints(d, &buf, &mut plain_pos, &mut plain), Some(()));
                let mut fused = vec![0u64; values.len()];
                let mut pos = 0usize;
                let mut ck = PayloadChecksum::new(&h);
                assert_eq!(
                    read_uvarints_ck(d, &buf, &mut pos, &mut fused, &mut ck),
                    Some(())
                );
                assert_eq!(fused, plain, "{d:?} values");
                assert_eq!(pos, plain_pos, "{d:?} position");
                assert_eq!(ck.finish(&buf), want_sum, "{d:?} checksum");
            }
        }
        // Failure shapes: fused fails exactly where plain does, and the
        // partially absorbed checksum still finishes to the one-shot sum.
        let too_big: Vec<u8> = [0xff; 9].iter().copied().chain([0x02u8]).collect();
        for bad in [vec![0x80u8, 0x80], too_big] {
            let h = header(bad.len());
            for d in [Dispatch::Scalar, Dispatch::Wide] {
                let mut dst = [0u64; 1];
                let mut pos = 0usize;
                let mut ck = PayloadChecksum::new(&h);
                assert_eq!(read_uvarints_ck(d, &bad, &mut pos, &mut dst, &mut ck), None);
                assert_eq!(ck.finish(&bad), h.expected_checksum(&bad), "{d:?}");
            }
        }
    }

    #[test]
    fn bulk_decode_handles_boundary_shapes() {
        // All 1-byte (8 per window), all 2-byte (window-straddling at
        // every second value), the 9/10-byte in-window fallback, and a
        // tail shorter than a word.
        assert_bulk_matches(&[0; 40]);
        assert_bulk_matches(&[0x80; 40]);
        assert_bulk_matches(&[u64::MAX; 7]);
        assert_bulk_matches(&[1, u64::MAX, 2, 1 << 62, 3]);
        assert_bulk_matches(&[0x7f, 0x80, 0x3fff, 0x4000]);
    }
}
