//! The sample payload ([`FrameType::Sample`](crate::frame::FrameType::Sample)):
//! CPU 0's counts, then one plane of CPU-over-CPU deltas per event,
//! with every length moved out of the data into a per-event directory.
//!
//! ```text
//! offset            size            field
//! 0                 n_events        directory, one byte per event
//! n_events          Σ base bytes    bases: CPU 0's raw counts
//! (after bases)     Σ plane bytes   one delta plane per event
//! ```
//!
//! Directory byte `e` holds event `e`'s base code in its low nibble and
//! its plane code in its high nibble. A plane carries the event's
//! `cpus − 1` delta lanes: lane `i` is the zigzag of CPU `i`'s count
//! minus CPU `i − 1`'s (wrapping), so fleet siblings that count nearly
//! alike give small lanes. All stored values are little-endian.
//!
//! | code    | base                           | plane                                      |
//! |---------|--------------------------------|--------------------------------------------|
//! | `0..=3` | the count at `1 << c` bytes    | *dense*: every lane at `1 << c` bytes      |
//! | `4`     | *zero*: the count is 0, no bytes | *zero*: every lane is 0, no bytes        |
//! | `8..=11`| illegal                        | *sparse*: a bitmap of `⌈(cpus − 1)/8⌉` bytes (bit `i` set ⇔ lane `i + 1` nonzero), then the nonzero lanes at `1 << (c & 3)` bytes |
//!
//! Every other nibble is illegal, as is a bitmap bit at or above
//! `cpus − 1`. A CPU count above [`MAX_WIRE_CPUS`] is refused before
//! anything is sized: zero planes store nothing, so the payload length
//! alone does not bound the lane buffer a layout can ask for.
//!
//! **Encoder.** A zero count or an all-zero plane is coded zero.
//! Otherwise the width is the smallest that holds the base, or the OR
//! of the plane's lanes (a width code depends only on the highest set
//! bit), and a plane goes sparse only when its bitmap plus its nonzero
//! lanes are strictly smaller than the dense plane. So one window has
//! exactly one payload. [`SampleSet`] already stores each event's counts
//! across CPUs contiguously, so the gather takes the list of planes to
//! ship — every plane for the stateless frame functions, the row
//! projection for [`WireEncoder`](crate::WireEncoder) — and is one
//! subtract/zigzag/OR pass per listed plane that leaves its base, its
//! delta lanes and their OR. The write counts the nonzero lanes of
//! each plane the OR does not already code zero, in one pass over its
//! contiguous lanes, sizes the payload once from the directory and
//! stores each plane by its code.
//!
//! **Decoder.** [`decode_planes`] walks the payload once, **straight
//! into the fold's shape**. The caller passes a slot per wire event —
//! the registered layout's inverse map onto
//! [`ROW_EVENTS`](tdp_fleet::ROW_EVENTS) — and only slotted planes are
//! unfolded, each into its f64 row lane (CPU 0's base first): a dense
//! plane with one bounds check and one fixed-size load per lane, a zero
//! plane as a fill, a sparse plane by its bitmap. The agent encoder
//! ships only the nine row events, so on its frames every plane has a
//! slot; a frame from another producer may carry any layout, and its
//! unslotted planes are never unfolded. Skipping changes no verdict:
//! one pass over a 256-entry table checks every directory byte while it
//! sizes the bases region, every base is read, every plane priced (a
//! sparse plane's price and bitmap are checked even when skipped) and
//! trailing bytes rejected. The walk never sees the checksum: the
//! decoder verifies it over the whole frame before the walk starts.
//!
//! The reconstructed counts are integer-exact and `count as f64` is the
//! same IEEE rounding wherever it is performed, so wire rows are
//! bit-identical to in-memory ones, property-tested in
//! `tests/planar.rs` across random layouts, CPU counts on every bitmap
//! byte boundary, and width-boundary values.

use crate::encode::EncodeError;
use crate::frame::{MAX_WIRE_CPUS, MAX_WIRE_EVENTS};
use crate::varint::{unzigzag, zigzag};
use tdp_counters::SampleSet;

/// The code of a zero base or an all-zero plane: nothing is stored.
const ZERO: u8 = 4;

/// The flag of a sparse plane code (`8..=11`, width code `c & 3`).
const SPARSE: u8 = 8;

/// The table entry of a directory byte with an illegal nibble.
const BAD_DIR: u8 = 0x80;

/// Per directory byte, the bytes its base stores, or [`BAD_DIR`] if
/// either nibble is illegal. Legal stored widths are at most 8, so one
/// OR over a directory's entries tells whether any byte was illegal.
const BASE_BYTES: [u8; 256] = {
    let mut t = [BAD_DIR; 256];
    let mut d = 0;
    while d < 256 {
        let (base, plane) = (d as u8 & 0x0f, d as u8 >> 4);
        if base <= ZERO && (plane <= ZERO || plane & !3 == SPARSE) {
            t[d] = if base == ZERO { 0 } else { 1 << base };
        }
        d += 1;
    }
    t
};

/// The smallest width code (`0..=3`, meaning `1 << code` bytes) whose
/// lane holds `v`. The code depends only on `v`'s highest set bit, so
/// the code of an OR of values is the largest of their codes.
#[inline]
fn width_code(v: u64) -> u8 {
    if v < 1 << 8 {
        0
    } else if v < 1 << 16 {
        1
    } else if v < 1 << 32 {
        2
    } else {
        3
    }
}

/// A base's code and stored bytes.
#[inline]
fn base_code(count: u64) -> (u8, usize) {
    if count == 0 {
        return (ZERO, 0);
    }
    let c = width_code(count);
    (c, 1 << c)
}

/// The code and stored bytes of the plane `lanes`, whose OR is `or`:
/// zero, else dense at the OR's width unless the sparse form is
/// strictly smaller. Only a plane with a nonzero lane is counted, in
/// one pass over its contiguous lanes.
#[inline]
fn plane_code(or: u64, lanes: &[u64]) -> (u8, usize) {
    if or == 0 {
        return (ZERO, 0);
    }
    let c = width_code(or);
    let nonzero = lanes.iter().filter(|&&z| z != 0).count();
    let stride = lanes.len();
    let (dense, sparse) = (stride << c, stride.div_ceil(8) + (nonzero << c));
    if sparse < dense {
        (SPARSE | c, sparse)
    } else {
        (c, dense)
    }
}

/// The producer's reusable scratch: one sample set gathered into
/// event-major lanes, ready to be written as a payload.
#[derive(Debug, Clone, Default)]
pub(crate) struct PlanarScratch {
    /// Event-major lanes in wire-event order: `lanes[e·cpus]`
    /// is event `e`'s count on CPU 0, `lanes[e·cpus + c]` the zigzag
    /// delta of CPU `c` over CPU `c − 1`.
    lanes: Vec<u64>,
    /// Per event, the OR of its delta lanes, whose width code is the
    /// plane's.
    delta_or: Vec<u64>,
    cpus: usize,
}

impl PlanarScratch {
    /// Turns each of `set`'s event planes listed in `planes` (by
    /// position in the set's layout) into its base and zigzag delta
    /// lanes and the OR of those lanes, in one pass over the plane's
    /// contiguous counts. The payload's events are those planes', in
    /// the order listed.
    ///
    /// # Errors
    ///
    /// [`EncodeError::OutOfBounds`] if `planes` exceeds
    /// [`MAX_WIRE_EVENTS`] or the set [`MAX_WIRE_CPUS`]. The caller has
    /// written nothing yet.
    ///
    /// # Panics
    ///
    /// Panics if a listed plane is past the set's layout.
    pub(crate) fn gather(
        &mut self,
        set: &SampleSet,
        planes: impl ExactSizeIterator<Item = usize>,
    ) -> Result<(), EncodeError> {
        let (n, cpus) = (planes.len(), set.num_cpus());
        if n > MAX_WIRE_EVENTS || cpus > MAX_WIRE_CPUS {
            return Err(EncodeError::OutOfBounds);
        }
        self.cpus = cpus;
        // Every lane is overwritten below, so only a geometry change
        // resizes.
        self.lanes.resize(n * cpus, 0);
        self.delta_or.clear();
        if cpus == 0 {
            return Ok(());
        }
        for (p, lanes) in planes.zip(self.lanes.chunks_exact_mut(cpus)) {
            let counts = &set.counts()[p * cpus..][..cpus];
            lanes[0] = counts[0];
            let mut or = 0;
            for ((z, &cur), &prev) in lanes[1..].iter_mut().zip(&counts[1..]).zip(counts) {
                *z = zigzag(cur.wrapping_sub(prev) as i64);
                or |= *z;
            }
            self.delta_or.push(or);
        }
        Ok(())
    }

    /// Appends the payload of the last gathered set to `buf`:
    /// directory, bases, then one delta plane per event, each stored by
    /// its code. An empty set (no CPUs) appends nothing.
    pub(crate) fn write(&self, buf: &mut Vec<u8>) {
        let (n, cpus) = (self.delta_or.len(), self.cpus);
        if cpus == 0 {
            return;
        }
        let mut dir = [0u8; MAX_WIRE_EVENTS];
        let (mut bases_len, mut planes_len) = (0usize, 0usize);
        let events = self.lanes.chunks_exact(cpus).zip(&self.delta_or);
        for (d, (lanes, &or)) in dir.iter_mut().zip(events) {
            let (base, base_bytes) = base_code(lanes[0]);
            let (plane, plane_bytes) = plane_code(or, &lanes[1..]);
            *d = plane << 4 | base;
            bases_len += base_bytes;
            planes_len += plane_bytes;
        }
        let dir = &dir[..n];
        // Sized once from the directory; every byte is then written at
        // its offset.
        let start = buf.len();
        buf.resize(start + n + bases_len + planes_len, 0);
        let (head, planes) = buf[start..].split_at_mut(n + bases_len);
        let (dir_out, bases) = head.split_at_mut(n);
        dir_out.copy_from_slice(dir);
        let (mut b, mut p) = (0, 0);
        for (&d, lanes) in dir.iter().zip(self.lanes.chunks_exact(cpus)) {
            b += put_coded(&mut bases[b..], d & 0x0f, &lanes[..1]);
            p += put_coded(&mut planes[p..], d >> 4, &lanes[1..]);
        }
    }
}

/// Stores `lanes` as `code` declares (a base is a one-lane plane),
/// returning the bytes written. Each arm monomorphises to fixed-size
/// stores.
#[inline(always)]
fn put_coded(dst: &mut [u8], code: u8, lanes: &[u64]) -> usize {
    match code {
        0 => put_plane::<1>(dst, lanes),
        1 => put_plane::<2>(dst, lanes),
        2 => put_plane::<4>(dst, lanes),
        3 => put_plane::<8>(dst, lanes),
        ZERO => 0,
        8 => put_sparse::<1>(dst, lanes),
        9 => put_sparse::<2>(dst, lanes),
        10 => put_sparse::<4>(dst, lanes),
        _ => put_sparse::<8>(dst, lanes),
    }
}

/// The mirror of [`unfold_plane`]: writes `lanes` at constant width
/// `W`, one fixed-size store per lane, returning the bytes written.
#[inline(always)]
fn put_plane<const W: usize>(dst: &mut [u8], lanes: &[u64]) -> usize {
    let bytes = lanes.len() * W;
    for (slot, &z) in dst[..bytes].chunks_exact_mut(W).zip(lanes) {
        slot.copy_from_slice(&z.to_le_bytes()[..W]);
    }
    bytes
}

/// The mirror of [`unfold_sparse`]: the nonzero-lane bitmap, then the
/// nonzero lanes at constant width `W`, returning the bytes written.
#[inline(always)]
fn put_sparse<const W: usize>(dst: &mut [u8], lanes: &[u64]) -> usize {
    let (map, rest) = dst.split_at_mut(lanes.len().div_ceil(8));
    map.fill(0);
    let mut at = 0;
    for (i, &z) in lanes.iter().enumerate() {
        if z != 0 {
            map[i / 8] |= 1 << (i % 8);
            rest[at..at + W].copy_from_slice(&z.to_le_bytes()[..W]);
            at += W;
        }
    }
    map.len() + at
}

/// The slot of a wire event no row lane reads: its plane is priced and
/// skipped, never unfolded.
pub const NO_SLOT: u8 = u8::MAX;

/// Decodes a payload into `out` as **f64 row lanes**, projected
/// through `slots`: `slots[e]` is the row lane wire event `e` fills, or
/// [`NO_SLOT`], and `slots.len()` is the frame's event count. On
/// success `out` holds `rows · cpus` entries, event-major with CPU 0
/// first: `out[k·cpus + c]` is the count on CPU `c` of the wire event
/// whose slot is `k`, reconstructed and widened to f64 (the same
/// `count as f64` the column fold would otherwise perform). A lane no
/// wire event fills is `0.0` — rewritten on every frame, so nothing
/// from an earlier frame survives. Returns `None` on any structural
/// defect: `cpus` above [`MAX_WIRE_CPUS`], an illegal directory nibble,
/// a sparse bitmap bit past the last lane, or a payload length that
/// disagrees with what the directory declares.
///
/// The walk covers the whole payload whatever the projection: it
/// checks every nibble, reads every base, prices every plane (a
/// skipped plane is a bounds-checked advance, a skipped sparse plane's
/// bitmap is still checked), and rejects trailing bytes. Only planes
/// with a slot are unfolded, so the lanes are exactly those the full
/// unfold would leave for the same events, and the accept/reject
/// verdict is the full unfold's for every payload. Any well-formed
/// payload is accepted, canonical or not (a dense plane of zeros, a
/// width wider than its values need).
///
/// `out` never exceeds `rows` × [`MAX_WIRE_CPUS`] entries: the bound is
/// checked before the directory is read, so a corrupt header cannot
/// request a larger buffer.
///
/// # Panics
///
/// Panics if `rows > 64` or a slot is neither [`NO_SLOT`] nor below
/// `rows`.
pub fn decode_planes(
    payload: &[u8],
    slots: &[u8],
    rows: usize,
    cpus: usize,
    out: &mut Vec<f64>,
) -> Option<()> {
    assert!(rows <= 64, "at most 64 row lanes");
    if cpus > MAX_WIRE_CPUS {
        return None;
    }
    let n = slots.len();
    let dir = payload.get(..n)?;
    // One pass validates every directory byte and finds where the
    // planes start. Each base read below still bounds-checks, so a
    // payload shorter than this fails at the read, never at an index.
    let (mut bases_end, mut bad) = (n, 0u8);
    for &d in dir {
        let bytes = BASE_BYTES[d as usize];
        bad |= bytes;
        bases_end += usize::from(bytes);
    }
    if bad & BAD_DIR != 0 {
        return None;
    }
    // The walk and the zero-fill overwrite every entry, so resize only
    // on a geometry change (no steady-state memset).
    let out_len = rows * cpus;
    if out.len() != out_len {
        out.clear();
        out.resize(out_len, 0.0);
    }
    let pos = decode_fused(payload, slots, rows, cpus, bases_end, out)?;
    (pos == payload.len()).then_some(())
}

/// The little-endian value of a `W`-byte lane.
#[inline(always)]
fn lane<const W: usize>(src: &[u8]) -> u64 {
    let mut le = [0u8; 8];
    le[..W].copy_from_slice(&src[..W]);
    u64::from_le_bytes(le)
}

/// One little-endian lane of constant width `W` at `pos`: a single
/// fixed-size load with one bounds check. Returns `None` on overrun.
#[inline(always)]
fn read_lane<const W: usize>(payload: &[u8], pos: &mut usize) -> Option<u64> {
    let src = payload.get(*pos..*pos + W)?;
    *pos += W;
    Some(lane::<W>(src))
}

/// The base whose code the directory declared (a zero base stores no
/// bytes). Each arm monomorphises to a fixed-size load.
#[inline(always)]
fn read_base(payload: &[u8], pos: &mut usize, code: u8) -> Option<u64> {
    match code {
        0 => read_lane::<1>(payload, pos),
        1 => read_lane::<2>(payload, pos),
        2 => read_lane::<4>(payload, pos),
        3 => read_lane::<8>(payload, pos),
        _ => Some(0),
    }
}

/// Unfolds one event's dense plane at constant lane width: one bounds
/// check for the whole plane, then per lane the unzigzag, the wrapping
/// prefix add, and the `as f64` widen the column fold would otherwise
/// perform per count.
#[inline(always)]
fn unfold_plane<const W: usize>(
    payload: &[u8],
    pos: &mut usize,
    mut acc: u64,
    out: &mut [f64],
) -> Option<()> {
    let bytes = out.len() * W;
    let src = payload.get(*pos..*pos + bytes)?;
    for (slot, z) in out.iter_mut().zip(src.chunks_exact(W)) {
        acc = acc.wrapping_add(unzigzag(lane::<W>(z)) as u64);
        *slot = acc as f64;
    }
    *pos += bytes;
    Some(())
}

/// The bitmap of a sparse plane of `stride` lanes at `pos` and how many
/// lanes it marks nonzero. Returns `None` on overrun or a bit at or
/// past `stride`.
#[inline(always)]
fn sparse_map(payload: &[u8], pos: usize, stride: usize) -> Option<(&[u8], usize)> {
    let map = payload.get(pos..pos + stride.div_ceil(8))?;
    if !stride.is_multiple_of(8) && map.last().is_some_and(|&b| b >> (stride % 8) != 0) {
        return None;
    }
    Some((map, map.iter().map(|b| b.count_ones() as usize).sum()))
}

/// Unfolds one event's sparse plane: the bitmap says which lanes carry
/// a `W`-byte delta; every other lane repeats its predecessor's count.
#[inline(always)]
fn unfold_sparse<const W: usize>(
    payload: &[u8],
    pos: &mut usize,
    mut acc: u64,
    out: &mut [f64],
) -> Option<()> {
    let (map, nonzero) = sparse_map(payload, *pos, out.len())?;
    let start = *pos + map.len();
    let src = payload.get(start..start + nonzero * W)?;
    let mut deltas = src.chunks_exact(W);
    for (chunk, &bits) in out.chunks_mut(8).zip(map) {
        if bits == 0 {
            chunk.fill(acc as f64);
            continue;
        }
        for (j, slot) in chunk.iter_mut().enumerate() {
            if bits >> j & 1 != 0 {
                acc = acc.wrapping_add(unzigzag(lane::<W>(deltas.next()?)) as u64);
            }
            *slot = acc as f64;
        }
    }
    *pos = start + src.len();
    Some(())
}

/// Where a plane of `stride` lanes starting at `pos` ends, without
/// unfolding it. Returns `None` on overrun or a bad sparse bitmap.
#[inline(always)]
fn skip_plane(payload: &[u8], pos: usize, code: u8, stride: usize) -> Option<usize> {
    let end = match code {
        ZERO => pos,
        c if c & SPARSE != 0 => {
            let (map, nonzero) = sparse_map(payload, pos, stride)?;
            pos + map.len() + (nonzero << (c & 3))
        }
        c => pos + (stride << c),
    };
    (end <= payload.len()).then_some(end)
}

/// The decode: a two-cursor walk — `bpos` over the bases region, `ppos`
/// over the planes region — that emits each slotted event's full f64
/// lane (base first, then the unfolded deltas) in one visit and steps
/// over every other plane, then zero-fills the lanes no event filled.
/// Integer-exact before the final widen. Returns where the planes end.
///
/// With no CPUs there are no lanes to emit and every plane is empty;
/// the walk still reads every base, so trailing garbage is still
/// rejected.
#[inline(always)]
fn decode_fused(
    payload: &[u8],
    slots: &[u8],
    rows: usize,
    cpus: usize,
    bases_end: usize,
    out: &mut [f64],
) -> Option<usize> {
    let n = slots.len();
    let mut bpos = n;
    let mut ppos = bases_end;
    let stride = cpus.saturating_sub(1);
    let mut filled = 0u64;
    for (&code, &slot) in payload[..n].iter().zip(slots) {
        let base = read_base(payload, &mut bpos, code & 0x0f)?;
        if cpus == 0 {
            continue;
        }
        let plane = code >> 4;
        if slot == NO_SLOT {
            ppos = skip_plane(payload, ppos, plane, stride)?;
            continue;
        }
        let k = slot as usize;
        filled |= 1 << k;
        let dst = &mut out[k * cpus..(k + 1) * cpus];
        dst[0] = base as f64;
        let lanes = &mut dst[1..];
        match plane {
            0 => unfold_plane::<1>(payload, &mut ppos, base, lanes),
            1 => unfold_plane::<2>(payload, &mut ppos, base, lanes),
            2 => unfold_plane::<4>(payload, &mut ppos, base, lanes),
            3 => unfold_plane::<8>(payload, &mut ppos, base, lanes),
            ZERO => {
                lanes.fill(base as f64);
                Some(())
            }
            8 => unfold_sparse::<1>(payload, &mut ppos, base, lanes),
            9 => unfold_sparse::<2>(payload, &mut ppos, base, lanes),
            10 => unfold_sparse::<4>(payload, &mut ppos, base, lanes),
            _ => unfold_sparse::<8>(payload, &mut ppos, base, lanes),
        }?;
    }
    // Visit only the lanes no plane filled: with every row event
    // present (the common layout) this is one mask test.
    let mut missing = !filled & u64::MAX.checked_shr(64 - rows as u32).unwrap_or(0);
    while missing != 0 {
        let k = missing.trailing_zeros() as usize;
        missing &= missing - 1;
        out[k * cpus..(k + 1) * cpus].fill(0.0);
    }
    Some(ppos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{BodyHead, FrameHeader, FrameType};
    use crate::{encode_sample_frame, EncodeError, WireEncoder};
    use proptest::prelude::*;
    use tdp_counters::PerfEvent;
    use tdp_fleet::{row_slots, ROW_EVENTS};

    /// The per-lane encoder the gather/write pair replaced, kept as the
    /// byte-identity oracle: every lane re-reads its two counts from the
    /// block by index, every code is chosen from the lanes themselves,
    /// and every byte is appended in order.
    fn encode_payload_per_lane(buf: &mut Vec<u8>, set: &SampleSet) {
        let (n, cpus) = (set.events().len(), set.num_cpus());
        if cpus == 0 {
            return;
        }
        let count = |cpu: usize, e: usize| set.counts()[e * cpus + cpu];
        let zz =
            |cpu: usize, e: usize| zigzag(count(cpu, e).wrapping_sub(count(cpu - 1, e)) as i64);
        let deltas = |e: usize| (1..cpus).map(|cpu| zz(cpu, e)).collect::<Vec<u64>>();

        let dir_start = buf.len();
        for e in 0..n {
            let base_code = match count(0, e) {
                0 => ZERO,
                v => width_code(v),
            };
            let d = deltas(e);
            let plane_code = if d.iter().all(|&z| z == 0) {
                ZERO
            } else {
                let c = d.iter().map(|&z| width_code(z)).max().unwrap();
                let w = 1usize << c;
                let nonzero = d.iter().filter(|&&z| z != 0).count();
                if d.len().div_ceil(8) + nonzero * w < d.len() * w {
                    SPARSE | c
                } else {
                    c
                }
            };
            buf.push(plane_code << 4 | base_code);
        }
        for e in 0..n {
            let code = buf[dir_start + e] & 0x0f;
            if code != ZERO {
                buf.extend_from_slice(&count(0, e).to_le_bytes()[..1 << code]);
            }
        }
        for e in 0..n {
            let code = buf[dir_start + e] >> 4;
            if code == ZERO {
                continue;
            }
            let w = 1usize << (code & 3);
            let d = deltas(e);
            if code & SPARSE != 0 {
                let mut map = vec![0u8; d.len().div_ceil(8)];
                for (i, &z) in d.iter().enumerate() {
                    if z != 0 {
                        map[i / 8] |= 1 << (i % 8);
                    }
                }
                buf.extend_from_slice(&map);
            }
            for z in d {
                if code & SPARSE == 0 || z != 0 {
                    buf.extend_from_slice(&z.to_le_bytes()[..w]);
                }
            }
        }
    }

    /// The payload of `set` through the gather/write pair, checked byte
    /// for byte against the per-lane oracle.
    fn encode_payload(set: &SampleSet) -> Vec<u8> {
        let mut scratch = PlanarScratch::default();
        scratch
            .gather(set, 0..set.events().len())
            .expect("well-formed set");
        let mut payload = Vec::new();
        scratch.write(&mut payload);
        let mut oracle = Vec::new();
        encode_payload_per_lane(&mut oracle, set);
        assert_eq!(payload, oracle, "payload diverged from the per-lane oracle");
        payload
    }

    fn set_of(counts: &[Vec<u64>]) -> SampleSet {
        let events = [
            PerfEvent::Cycles,
            PerfEvent::HaltedCycles,
            PerfEvent::L2Misses,
        ];
        set_over(&events, counts)
    }

    /// A window of `rows[cpu]` counts over `layout`.
    fn set_over(layout: &[PerfEvent], rows: &[Vec<u64>]) -> SampleSet {
        let mut set = SampleSet::empty();
        set.seq = 1;
        let cpus = rows.len();
        let block = set.reset(layout.iter().copied(), cpus);
        for (cpu, vals) in rows.iter().enumerate() {
            for (e, &n) in vals.iter().enumerate() {
                block[e * cpus + cpu] = n;
            }
        }
        set
    }

    /// The all-events slot map: wire event `e` fills lane `e`, so the
    /// walk unfolds every plane in wire order.
    fn all_slots(n: usize) -> Vec<u8> {
        (0..n as u8).collect()
    }

    /// The decoder's slot map for `layout`: each wire event's
    /// [`ROW_EVENTS`] lane by [`row_slots`], or [`NO_SLOT`].
    fn slots_of(layout: &[PerfEvent]) -> Vec<u8> {
        row_slots(layout.iter().map(|e| e.index() as u64))
            .map(|k| k.map_or(NO_SLOT, |k| k as u8))
            .collect()
    }

    /// `set` as the encoder ships it, built without [`row_slots`]: only
    /// the planes of row events not listed earlier, in the set's order.
    fn projected(set: &SampleSet) -> SampleSet {
        let (layout, cpus) = (set.events(), set.num_cpus());
        let keep: Vec<usize> = (0..layout.len())
            .filter(|&e| ROW_EVENTS.contains(&layout[e]) && !layout[..e].contains(&layout[e]))
            .collect();
        let mut out = SampleSet::empty();
        out.seq = set.seq;
        let block = out.reset(keep.iter().map(|&e| layout[e]), cpus);
        for (dst, &e) in block.chunks_exact_mut(cpus.max(1)).zip(&keep) {
            dst.copy_from_slice(&set.counts()[e * cpus..][..cpus]);
        }
        out
    }

    /// Every plane of `payload`, wire order.
    fn decode(payload: &[u8], n: usize, cpus: usize) -> Option<Vec<f64>> {
        let mut out = Vec::new();
        decode_planes(payload, &all_slots(n), n, cpus, &mut out)?;
        Some(out)
    }

    /// Asserts that `out` holds `set`'s counts, event-major.
    fn assert_lanes(out: &[f64], set: &SampleSet) {
        for (i, &count) in set.counts().iter().enumerate() {
            assert_eq!(out[i].to_bits(), (count as f64).to_bits(), "lane {i}");
        }
    }

    #[test]
    fn payload_roundtrips_and_widths_are_minimal() {
        // Event 0: tiny values (1-byte base, 1-byte deltas); event 1:
        // large base, negative delta; event 2: width-boundary values.
        let set = set_of(&[
            vec![200, 5_000_000_000, 1 << 31],
            vec![201, 4_999_999_000, (1 << 31) + 127],
            vec![190, 5_000_001_000, 1 << 31],
        ]);
        let payload = encode_payload(&set);
        // Directory: e0 base 1B delta 1B; e1 base 8B (≥ 2^32) deltas
        // 2B (zigzag(±1000) ≈ 2000); e2 base 4B... 2^31 < 2^32 so 4B,
        // deltas 1B (zigzag(127)=254, zigzag(-127)=253). Two lanes with
        // both nonzero stay dense.
        assert_eq!(payload[..3], [0x00, 0x13, 0x02]);
        assert_lanes(&decode(&payload, 3, 3).expect("clean payload"), &set);
    }

    #[test]
    fn zero_and_sparse_codes_are_chosen_and_roundtrip() {
        // Nine CPUs: eight delta lanes, one bitmap byte. Event 0 is
        // zero everywhere; event 1 is flat (zero plane, nonzero base);
        // event 2 steps once, on CPU 5, by a 2-byte delta.
        let rows: Vec<Vec<u64>> = (0..9u64)
            .map(|cpu| vec![0, 70_000, if cpu >= 5 { 1_000 } else { 0 }])
            .collect();
        let set = set_of(&rows);
        let payload = encode_payload(&set);
        // Sparse costs 1 + 2 = 3 bytes against the dense 16.
        assert_eq!(payload[..3], [0x44, 0x42, 0x94]);
        assert_eq!(payload[3..7], 70_000u32.to_le_bytes());
        assert_eq!(payload[7], 1 << 4, "bitmap: lane 5 (bit 4)");
        assert_eq!(payload[8..], zigzag(1_000).to_le_bytes()[..2]);
        assert_lanes(&decode(&payload, 3, 9).expect("clean payload"), &set);

        // On four CPUs (three lanes) a tie stays dense: two nonzero
        // 1-byte lanes cost 1 + 2 bytes sparse and 3 dense. One nonzero
        // 2-byte lane goes sparse (1 + 2 < 6).
        let narrow = set_of(&[
            vec![5, 500, 9],
            vec![6, 500, 9],
            vec![7, 1_000, 9],
            vec![7, 1_000, 9],
        ]);
        let payload = encode_payload(&narrow);
        assert_eq!(payload[..3], [0x00, 0x91, 0x40]);
        assert_lanes(&decode(&payload, 3, 4).expect("clean payload"), &narrow);
    }

    #[test]
    fn structural_defects_are_rejected() {
        let set = set_of(&[vec![10, 20, 30], vec![11, 19, 31]]);
        let payload = encode_payload(&set);
        assert!(decode(&payload, 3, 2).is_some(), "clean baseline");
        // Illegal nibbles: base codes 5 and 8, plane codes 5 and 12.
        for nibble in [0x05, 0x08, 0x50, 0xc0] {
            let mut bad = payload.clone();
            bad[0] = nibble;
            assert!(decode(&bad, 3, 2).is_none(), "{nibble:#04x}");
        }
        // Truncated and padded payloads disagree with the directory.
        assert!(decode(&payload[..payload.len() - 1], 3, 2).is_none());
        let mut long = payload.clone();
        long.push(0);
        assert!(decode(&long, 3, 2).is_none());
        // Payload shorter than the directory itself.
        assert!(decode(&payload[..2], 3, 2).is_none());
        // A sparse plane of three lanes whose bitmap marks lane 4, and
        // one whose marked lanes are cut short.
        assert!(decode(&[0x84, 0b1000, 1], 1, 4).is_none());
        assert!(decode(&[0x84, 0b0011, 1], 1, 4).is_none());
        assert!(decode(&[0x84, 0b0011, 1, 2], 1, 4).is_some());
    }

    #[test]
    fn i64_min_delta_selects_the_eight_byte_lane_and_roundtrips() {
        // A CPU-over-CPU step of exactly i64::MIN zigzags to u64::MAX —
        // the one value where a sign-magnitude width heuristic would
        // underprice the lane. It must take width code 3 and come back
        // bit-exact through the walk...
        let base = 3u64;
        let stepped = base.wrapping_add(i64::MIN as u64);
        let set = set_of(&[vec![base, 1, 2], vec![stepped, 1, 2]]);
        let payload = encode_payload(&set);
        assert_eq!(payload[0] >> 4, 3, "i64::MIN delta must price 8 bytes");
        let out = decode(&payload, 3, 2).expect("two-CPU frame");
        assert_eq!(
            out[1].to_bits(),
            (stepped as f64).to_bits(),
            "two-CPU roundtrip"
        );
        // ...and on a wide frame (3 events × 64 deltas = 192 delta
        // lanes), alternating the extreme step so every lane in event
        // 0's plane is ±i64::MIN.
        let cpus = 65usize;
        let rows: Vec<Vec<u64>> = (0..cpus)
            .map(|cpu| {
                let v = if cpu % 2 == 0 { base } else { stepped };
                vec![v, cpu as u64, 7]
            })
            .collect();
        let wide = set_of(&rows);
        let payload = encode_payload(&wide);
        assert_eq!(payload[0] >> 4, 3);
        assert_lanes(&decode(&payload, 3, cpus).expect("wide frame"), &wide);
    }

    #[test]
    fn corrupt_cpu_count_is_rejected_before_allocating() {
        // A forged layout can claim 65535 CPUs or more against a tiny
        // payload; the CPU bound must reject it before sizing the lane
        // buffer — zero planes store nothing, so the payload cannot.
        let set = set_of(&[vec![10, 20, 30], vec![10, 20, 30]]);
        let payload = encode_payload(&set);
        assert_eq!(payload.len(), 6, "three zero planes");
        for cpus in [MAX_WIRE_CPUS + 1, u16::MAX as usize] {
            let mut out = Vec::new();
            assert!(decode_planes(&payload, &all_slots(3), 3, cpus, &mut out).is_none());
            assert_eq!(out.capacity(), 0, "{cpus} CPUs: no lane-buffer growth");
        }
        // At the bound the same payload decodes: every CPU repeats CPU 0.
        let out = decode(&payload, 3, MAX_WIRE_CPUS).expect("zero planes at the bound");
        assert_eq!(out.len(), 3 * MAX_WIRE_CPUS);
    }

    #[test]
    fn one_event_corrupt_cpu_count_is_rejected_before_the_row_buffer_grows() {
        // The row buffer is nine lanes per CPU whatever the layout, so a
        // one-event layout is where a forged CPU count would buy the
        // largest buffer per payload byte. The bound must still reject
        // it first, for a wanted event and for a skipped one.
        let set = set_of(&[vec![10], vec![11], vec![12]]);
        let payload = &encode_payload(&set)[..2];
        for slot in [0, NO_SLOT] {
            let mut out = Vec::new();
            let rows = ROW_EVENTS.len();
            assert!(decode_planes(payload, &[slot], rows, 65535, &mut out).is_none());
            assert_eq!(out.capacity(), 0, "slot {slot}: no lane-buffer growth");
        }
    }

    #[test]
    fn single_cpu_and_empty_frames_decode() {
        let set = set_of(&[vec![7, 300, u64::MAX]]);
        let payload = encode_payload(&set);
        let out = decode(&payload, 3, 1).expect("single CPU");
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].to_bits(), 7.0f64.to_bits());
        assert_eq!(out[1].to_bits(), 300.0f64.to_bits());
        assert_eq!(out[2].to_bits(), (u64::MAX as f64).to_bits());
        // No CPUs: empty payload, nothing decoded.
        let empty = set_of(&[]);
        let payload = encode_payload(&empty);
        assert!(payload.is_empty());
        assert_eq!(decode(&payload, 0, 0), Some(Vec::new()));
    }

    /// The sample payloads in `wire`, in stream order.
    fn sample_payloads(wire: &[u8]) -> Vec<&[u8]> {
        let mut out = Vec::new();
        let mut pos = 0;
        while pos < wire.len() {
            let h = FrameHeader::parse(&wire[pos..]).expect("well-formed stream");
            let body = &wire[pos + h.header_len()..pos + h.frame_len()];
            if h.frame_type == FrameType::Sample {
                out.push(BodyHead::read(body).expect("well-formed body").1);
            }
            pos += h.frame_len();
        }
        out
    }

    /// The oracle's payload for `set`.
    fn oracle(set: &SampleSet) -> Vec<u8> {
        let mut payload = Vec::new();
        encode_payload_per_lane(&mut payload, set);
        payload
    }

    /// A `cpus`-CPU window over the first `n` events of a layout
    /// shuffled by `seed`; see [`boundary_set_over`].
    fn boundary_set(cpus: usize, n: usize, seed: u64, cells: &[(u64, u8)]) -> SampleSet {
        let mut layout = PerfEvent::ALL.to_vec();
        let mut rng = seed | 1;
        for i in (1..layout.len()).rev() {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            layout.swap(i, (rng % (i as u64 + 1)) as usize);
        }
        layout.truncate(n);
        boundary_set_over(&layout, cpus, cells)
    }

    /// A `cpus`-CPU window over `layout`. Each cell's selector picks a
    /// width-boundary value, a uniform draw from one width class, a
    /// step of exactly `i64::MIN` over the previous CPU's count
    /// (selector 15), or a repeat of it (16–19: zero lanes, so zero and
    /// sparse planes are common).
    fn boundary_set_over(layout: &[PerfEvent], cpus: usize, cells: &[(u64, u8)]) -> SampleSet {
        const BOUNDARIES: [u64; 11] = [
            0,
            (1 << 8) - 1,
            1 << 8,
            (1 << 16) - 1,
            1 << 16,
            (1 << 32) - 1,
            1 << 32,
            (1 << 63) - 1,
            1 << 63,
            u64::MAX - 1,
            u64::MAX,
        ];
        let n = layout.len();
        let mut rows: Vec<Vec<u64>> = Vec::with_capacity(cpus);
        for cpu in 0..cpus {
            let row = (0..n)
                .map(|e| {
                    let (raw, pick) = cells[(cpu * PerfEvent::ALL.len() + e) % cells.len()];
                    match pick {
                        p if (p as usize) < BOUNDARIES.len() => BOUNDARIES[p as usize],
                        11 => raw & 0xff,
                        12 => raw & 0xffff,
                        13 => raw & 0xffff_ffff,
                        15 if cpu > 0 => rows[cpu - 1][e].wrapping_add(i64::MIN as u64),
                        16..=19 if cpu > 0 => rows[cpu - 1][e],
                        _ => raw,
                    }
                })
                .collect();
            rows.push(row);
        }
        set_over(layout, &rows)
    }

    /// CPU counts the format meets: none, one, a 4-way server, both
    /// sides of each bitmap byte boundary, 32 and 65.
    const CPU_COUNTS: [usize; 11] = [0, 1, 2, 3, 4, 8, 9, 17, 32, 33, 65];

    proptest! {
        /// The gather/write pair emits the per-lane oracle's payload
        /// byte for byte, at every CPU count the format meets and with
        /// values on every width boundary — through the stateless frame
        /// function on the set itself, and through an encoder whose
        /// scratch last held another geometry on the set's row
        /// projection.
        #[test]
        fn gathered_payload_matches_the_per_lane_oracle(
            cpus in (0..CPU_COUNTS.len()).prop_map(|i| CPU_COUNTS[i]),
            n in 0usize..19,
            seed in any::<u64>(),
            cells in prop::collection::vec((any::<u64>(), 0u8..20), 65 * 18),
        ) {
            let set = boundary_set(cpus, n, seed, &cells);
            let want = oracle(&set);
            let mut frame = Vec::new();
            encode_sample_frame(&mut frame, 3, 0, &set).unwrap();
            prop_assert_eq!(sample_payloads(&frame), [&want[..]]);

            let mut enc = WireEncoder::new();
            let prime = boundary_set(65, 18, !seed, &cells);
            enc.push_sample_set(3, &prime).unwrap();
            enc.push_sample_set(3, &set).unwrap();
            let payloads = sample_payloads(enc.bytes());
            prop_assert_eq!(payloads[0], &oracle(&projected(&prime))[..]);
            prop_assert_eq!(payloads[1], &oracle(&projected(&set))[..]);
        }
    }

    /// Where each plane of a valid `payload` starts and ends, and its
    /// code.
    fn plane_spans(payload: &[u8], n: usize, cpus: usize) -> Vec<(usize, usize, u8)> {
        let stride = cpus.saturating_sub(1);
        let dir = &payload[..n];
        let mut at = n + dir
            .iter()
            .map(|&d| usize::from(BASE_BYTES[d as usize]))
            .sum::<usize>();
        dir.iter()
            .map(|&d| {
                let start = at;
                at = skip_plane(payload, at, d >> 4, stride).expect("valid payload");
                (start, at, d >> 4)
            })
            .collect()
    }

    proptest! {
        /// The row projection is the full unfold, read through the
        /// layout: at every CPU count the format meets and over layouts
        /// that reorder, omit or repeat row events, row lane `k` equals
        /// the all-events lane of `ROW_EVENTS[k]`'s first occurrence
        /// (zeros where the layout lacks it), even in a buffer whose old
        /// contents are NaN. The full unfold is the set's counts. And the
        /// two walks reject exactly the same payloads: an illegal
        /// nibble, a skipped or a wanted plane cut short, a sparse
        /// bitmap bit past the last lane, a trailing byte, a CPU count
        /// that disagrees or exceeds the bound, or any flipped byte.
        #[test]
        fn row_projection_matches_the_full_unfold(
            cpus in (0..CPU_COUNTS.len()).prop_map(|i| CPU_COUNTS[i]),
            picks in prop::collection::vec(0usize..PerfEvent::ALL.len() + 6, 1..24),
            cells in prop::collection::vec((any::<u64>(), 0u8..20), 65 * 18),
            flip in (any::<usize>(), 1u8..255),
        ) {
            // Indices past the event list pick a row event again, so
            // repeats of the model's events are common.
            let layout: Vec<PerfEvent> = picks
                .iter()
                .map(|&i| PerfEvent::ALL.get(i).copied().unwrap_or(ROW_EVENTS[i % 9]))
                .collect();
            let set = boundary_set_over(&layout, cpus, &cells);
            let payload = encode_payload(&set);
            let n = if cpus == 0 { 0 } else { layout.len() };
            let layout = &layout[..n];
            let slots = slots_of(layout);
            let rows = ROW_EVENTS.len();

            let full = decode(&payload, n, cpus).expect("clean payload");
            if cpus > 0 {
                assert_lanes(&full, &set);
            }
            let mut lanes = vec![f64::NAN; rows * cpus];
            decode_planes(&payload, &slots, rows, cpus, &mut lanes).expect("clean payload");
            for (k, ev) in ROW_EVENTS.iter().enumerate() {
                let first = layout.iter().position(|x| x == ev);
                for c in 0..cpus {
                    let want = first.map_or(0.0, |e| full[e * cpus + c]);
                    prop_assert_eq!(lanes[k * cpus + c].to_bits(), want.to_bits());
                }
            }

            let verdicts = |bad: &[u8], cpus: usize| {
                let mut out = Vec::new();
                (
                    decode_planes(bad, &all_slots(n), n, cpus, &mut out).is_some(),
                    decode_planes(bad, &slots, rows, cpus, &mut out).is_some(),
                )
            };
            let mut cases: Vec<(Vec<u8>, usize, bool)> = Vec::new();
            for e in 0..n {
                // Every legal code OR 5 is illegal, in either nibble.
                for nibble in [0x05, 0x50] {
                    let mut bad = payload.clone();
                    bad[e] |= nibble;
                    cases.push((bad, cpus, false));
                }
            }
            for (start, end, code) in plane_spans(&payload, n, cpus) {
                // Cut mid-plane, whether the projection skips the plane
                // or unfolds it.
                if end > start {
                    cases.push((payload[..(start + end) / 2].to_vec(), cpus, false));
                }
                // Set a sparse bitmap's first bit past the last lane.
                let stride = cpus - 1;
                if code & SPARSE != 0 && stride % 8 != 0 {
                    let mut bad = payload.clone();
                    bad[start + stride / 8] |= 1 << (stride % 8);
                    cases.push((bad, cpus, false));
                }
            }
            let mut long = payload.clone();
            long.push(0);
            cases.push((long, cpus, false));
            cases.push((payload.clone(), MAX_WIRE_CPUS + 1, false));
            cases.push((payload.clone(), cpus + 1, true));
            if !payload.is_empty() {
                let mut bad = payload.clone();
                bad[flip.0 % payload.len()] ^= flip.1;
                cases.push((bad, cpus, true));
            }
            for (bad, cpus, may_pass) in &cases {
                let (full_ok, row_ok) = verdicts(bad, *cpus);
                prop_assert_eq!(full_ok, row_ok, "verdicts diverged at {} CPUs", cpus);
                prop_assert!(*may_pass || !full_ok, "a defect passed at {} CPUs", cpus);
            }
        }
    }

    #[test]
    fn simulated_windows_match_the_per_lane_oracle() {
        use tdp_simsys::behavior::spin_loop_behavior;
        use tdp_simsys::{Machine, MachineConfig};
        for cpus in [4usize, 32] {
            let mut enc = WireEncoder::new();
            let mut want = Vec::new();
            for m in 0..3u64 {
                let mut cfg = MachineConfig::default();
                cfg.seed ^= m;
                cfg.cpu.num_cpus = cpus;
                let mut machine = Machine::new(cfg);
                for t in 0..m * cpus as u64 / 2 {
                    let load = 0.4 + 0.1 * (t % 7) as f64;
                    machine
                        .os_mut()
                        .spawn(Box::new(spin_loop_behavior(load)), 0);
                }
                for _ in 0..3 {
                    for _ in 0..60 {
                        machine.tick();
                    }
                    let set = machine.read_counters();
                    assert_eq!(set.num_cpus(), cpus);
                    assert_eq!(set.events(), PerfEvent::ALL);
                    let mut frame = Vec::new();
                    encode_sample_frame(&mut frame, m, 0, set).unwrap();
                    assert_eq!(sample_payloads(&frame), [oracle(set)], "{cpus} CPUs");
                    enc.push_sample_set(m, set).unwrap();
                    let shipped = projected(set);
                    assert_eq!(shipped.events().len(), ROW_EVENTS.len());
                    want.push(oracle(&shipped));
                }
            }
            assert_eq!(sample_payloads(enc.bytes()), want, "{cpus} CPUs");
        }
    }

    #[test]
    fn rejected_sets_leave_the_buffer_untouched() {
        // A layout or a CPU count past the format's bounds. (A set
        // whose CPUs disagree on the layout cannot be built at all.)
        let good = set_of(&[vec![10, 20, 30], vec![11, 19, 31]]);
        let wide = set_over(
            &[PerfEvent::Cycles; MAX_WIRE_EVENTS + 1],
            &[vec![1; MAX_WIRE_EVENTS + 1]],
        );
        let many = set_of(&vec![vec![10, 20, 30]; MAX_WIRE_CPUS + 1]);
        let err = EncodeError::OutOfBounds;
        for bad in [&wide, &many] {
            let mut out = vec![0xa5; 7];
            assert_eq!(encode_sample_frame(&mut out, 1, 0, bad), Err(err));
            assert_eq!(out, [0xa5; 7], "stateless {err:?}");
        }

        // The encoder ships one plane of `wide`, so only the CPU bound
        // can fail it: a machine already announced, and one seen for
        // the first time (whose layout frame must be rolled back too).
        let mut enc = WireEncoder::new();
        enc.push_sample_set(1, &good).unwrap();
        let before = enc.bytes().to_vec();
        for m in [1, 2] {
            assert_eq!(enc.push_sample_set(m, &many), Err(err));
            assert_eq!(enc.bytes(), &before[..], "machine {m}");
        }
        // The scratch the failed gather left behind does not leak into
        // the next frame.
        enc.push_sample_set(1, &good).unwrap();
        let shipped = oracle(&projected(&good));
        assert_eq!(sample_payloads(enc.bytes()), [&shipped[..], &shipped[..]]);
    }

    #[test]
    fn a_set_past_the_event_bound_encodes_its_row_projection() {
        // 65 events cycling through the row events: the stateless
        // function refuses the layout, the encoder ships each row
        // event's first occurrence — nine planes.
        let layout: Vec<PerfEvent> = (0..MAX_WIRE_EVENTS + 1)
            .map(|i| ROW_EVENTS[i % ROW_EVENTS.len()])
            .collect();
        let rows: Vec<Vec<u64>> = (0..3u64)
            .map(|cpu| (0..layout.len() as u64).map(|e| 1_000 * e + cpu).collect())
            .collect();
        let long = set_over(&layout, &rows);
        let mut out = Vec::new();
        assert_eq!(
            encode_sample_frame(&mut out, 1, 0, &long),
            Err(EncodeError::OutOfBounds)
        );
        let mut enc = WireEncoder::new();
        enc.push_sample_set(1, &long).unwrap();
        let shipped = projected(&long);
        assert_eq!(shipped.events(), ROW_EVENTS);
        assert_eq!(sample_payloads(enc.bytes()), [&oracle(&shipped)[..]]);
    }
}
