//! The column-planar fixed-width sample payload
//! ([`FrameType::PlanarSample`](crate::frame::FrameType::PlanarSample)).
//!
//! The varint sample payload is compact but serial: every varint's
//! length is data-dependent, so decode is a loop-carried
//! load→scan→advance chain with a hard per-varint latency floor
//! (DESIGN.md §4h measured it at ~136 ns of the ~268 ns fused budget).
//! The planar payload removes the dependency by moving the length
//! information out of the data and into a tiny per-frame directory:
//!
//! ```text
//! offset            size                    field
//! 0                 n_events                width directory
//! n_events          Σ base_w[e]             bases: CPU 0 raw counts
//! (after bases)     (cpu_count−1)·delta_w[0]  event 0 delta plane
//! …                 …                       … one plane per event
//! ```
//!
//! Directory byte `e` packs two width codes, low nibble for the base
//! and high nibble for the event's delta plane: code `c ∈ 0..=3` means
//! `1 << c` bytes per lane (1/2/4/8). The base is CPU 0's raw count,
//! little-endian at its width. A **delta plane** holds the event's
//! `cpu_count − 1` zigzag CPU-over-CPU deltas — the same values the
//! varint payload stores row-major — contiguous and fixed-width, so
//! decode is one fused walk over the payload: each plane is read as a
//! single bounds-checked slice at its constant lane width, and the lane
//! loop unzigzags, prefix-sums and widens in one step. The walk **emits
//! f64 lanes directly** — event-major, CPU 0's base first — so the
//! downstream column fold consumes them without per-count conversion,
//! and the payload checksum is absorbed in one trailing pass over the
//! lines the walk just touched, so the payload is effectively read once
//! for decode and verification together. Each plane's width is the
//! smallest that fits the plane's largest zigzag delta (bases
//! likewise), so the encoding is canonical: one window has exactly one
//! planar payload.
//!
//! Frame width does not change the walk. A 32-CPU frame carries about
//! 280 delta lanes against a 4-CPU frame's 27, and the same per-plane
//! loop serves both (DESIGN.md §4i records why no separate wide-frame
//! path is kept).
//!
//! The encoder mirrors the walk in two passes. The gather reads each
//! CPU's counts once, CPU-major as the sample set stores them, and
//! leaves event-major lanes in the decoder's output order plus one OR
//! per plane; since a width code depends only on the highest set bit,
//! the OR's code is the plane's width. The write sizes the payload once
//! from the directory and stores every plane at its constant width
//! (`put_plane::<W>`, the mirror of `unfold_plane::<W>`).
//!
//! Because the deltas and the delta chain are identical to the varint
//! encoding's — and `count as f64` is the same IEEE rounding wherever
//! it is performed — a decoder reconstructs bit-identical fleet rows
//! from either payload, property-tested in `tests/planar.rs` across
//! random layouts and width-boundary values.

use crate::encode::{first_counts, EncodeError};
use crate::frame::{PayloadChecksum, MAX_WIRE_EVENTS};
use crate::varint::zigzag;
use tdp_counters::SampleSet;

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

/// The producer's reusable scratch: one sample set gathered into
/// event-major lanes, ready to be written as a planar payload.
#[derive(Debug, Clone, Default)]
pub(crate) struct PlanarScratch {
    /// Event-major lanes in the decoder's output order: `lanes[e·cpus]`
    /// is event `e`'s count on CPU 0, `lanes[e·cpus + c]` the zigzag
    /// delta of CPU `c` over CPU `c − 1`.
    lanes: Vec<u64>,
    /// Per event, the OR of its delta lanes, whose width code is the
    /// plane's.
    delta_or: Vec<u64>,
    /// Per event, the last gathered CPU's count.
    prev: Vec<u64>,
    cpus: usize,
}

impl PlanarScratch {
    /// Reads each CPU's counts once, CPU-major as `set` stores them,
    /// checking every event id against CPU 0's and folding each count
    /// into its zigzag delta and its event's OR in the same visit.
    ///
    /// # Errors
    ///
    /// [`EncodeError::OutOfBounds`] if the layout or CPU count exceeds
    /// the format's bounds; [`EncodeError::MixedLayouts`] if any CPU's
    /// layout differs from CPU 0's. The caller has written nothing yet.
    pub(crate) fn gather(&mut self, set: &SampleSet) -> Result<(), EncodeError> {
        let first = first_counts(set);
        let (n, cpus) = (first.len(), set.per_cpu.len());
        if n > MAX_WIRE_EVENTS || cpus > u16::MAX as usize {
            return Err(EncodeError::OutOfBounds);
        }
        self.cpus = cpus;
        // Every lane is overwritten below, so only a geometry change
        // resizes.
        self.lanes.resize(n * cpus, 0);
        self.delta_or.clear();
        self.delta_or.resize(n, 0);
        self.prev.clear();
        self.prev.extend(first.iter().map(|p| p.1));
        let lanes = &mut self.lanes;
        for (e, &(_, count)) in first.iter().enumerate() {
            lanes[e * cpus] = count;
        }
        for (c, cpu) in set.per_cpu.iter().enumerate().skip(1) {
            let counts = cpu.counts();
            if counts.len() != n {
                return Err(EncodeError::MixedLayouts);
            }
            let mut mixed = false;
            let state = self.prev.iter_mut().zip(self.delta_or.iter_mut());
            for (e, ((&(ev, count), &(ev0, _)), (prev, or))) in
                counts.iter().zip(first).zip(state).enumerate()
            {
                mixed |= ev != ev0;
                let z = zigzag(count.wrapping_sub(*prev) as i64);
                *prev = count;
                *or |= z;
                lanes[e * cpus + c] = z;
            }
            if mixed {
                return Err(EncodeError::MixedLayouts);
            }
        }
        Ok(())
    }

    /// Appends the planar payload of the last gathered set to `buf`:
    /// directory, bases, then one delta plane per event, each plane at
    /// its constant width. An empty set (no CPUs) appends nothing.
    pub(crate) fn write(&self, buf: &mut Vec<u8>) {
        let (n, cpus) = (self.delta_or.len(), self.cpus);
        if cpus == 0 {
            return;
        }
        let mut dir = [0u8; MAX_WIRE_EVENTS];
        let (mut bases_len, mut planes_len) = (0usize, 0usize);
        let events = self.lanes.chunks_exact(cpus).zip(&self.delta_or);
        for (d, (lanes, &or)) in dir.iter_mut().zip(events) {
            let (base, delta) = (width_code(lanes[0]), width_code(or));
            *d = delta << 4 | base;
            bases_len += 1 << base;
            planes_len += (cpus - 1) << delta;
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

/// Writes `lanes` little-endian at the width `code` declares, returning
/// the bytes written. Each arm monomorphises to fixed-size stores.
#[inline(always)]
fn put_coded(dst: &mut [u8], code: u8, lanes: &[u64]) -> usize {
    match code {
        0 => put_plane::<1>(dst, lanes),
        1 => put_plane::<2>(dst, lanes),
        2 => put_plane::<4>(dst, lanes),
        _ => put_plane::<8>(dst, lanes),
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

/// Decodes a planar payload into `out` as **f64 event lanes**,
/// event-major with CPU 0's base first: `out[e·cpus + c]` is event
/// `e`'s reconstructed count on CPU `c`, widened to f64 (the delta
/// chain already unfolded — the same `count as f64` the column fold
/// would otherwise perform per count per window). Returns `None` on
/// any structural defect — bad directory nibble or a payload length
/// that disagrees with the directory's declared widths.
///
/// `ck` absorbs the payload once the walk has accepted it, over the
/// lines the walk just touched. [`PayloadChecksum::absorb_to`] is
/// position-pure and monotone, so where it runs cannot change the
/// checksum; the caller finishes it over whatever remains (all of the
/// payload, when the walk rejects) and gives its verdict precedence,
/// exactly as for varint sample frames.
///
/// Growth of `out` is bounded by the input: every base and delta lane
/// is at least one byte, so `out` never exceeds `payload.len()`
/// entries — a corrupt header cannot request an absurd allocation.
pub fn decode_planes(
    payload: &[u8],
    n_events: usize,
    cpus: usize,
    out: &mut Vec<f64>,
    ck: &mut PayloadChecksum,
) -> Option<()> {
    let n = n_events;
    if payload.len() < n {
        return None;
    }
    let stride = cpus.saturating_sub(1);
    let lanes = n + n * stride;
    // Nibble validation in one OR-reduce: a width code is legal iff it
    // fits two bits, so a directory is legal iff no byte sets bits 2–3
    // or 6–7.
    if payload[..n].iter().fold(0u8, |a, &b| a | b) & 0xcc != 0 {
        return None;
    }
    // Price floor *before* sizing `out`: every base and delta lane is at
    // least one byte, so a structurally valid payload carries no fewer
    // than `n` directory bytes plus one byte per lane. A header whose
    // cpu_count prices past the payload (a corrupt cpu_count can claim
    // 65535 CPUs against a 100-byte payload) is rejected here, so `out`
    // never exceeds `payload.len()` entries and a corrupt header cannot
    // request an absurd allocation.
    if payload.len() < n + lanes {
        return None;
    }
    // The decode passes overwrite every entry, so resize only on a
    // geometry change (no steady-state memset) — same policy as the
    // varint scratch.
    let out_len = n * cpus;
    if out.len() != out_len {
        out.clear();
        out.resize(out_len, 0.0);
    }
    // Exact pricing falls out of the walk itself: every plane read
    // checks its bounds, and the final `pos == payload.len()` check
    // rejects a payload with trailing bytes — together equivalent to
    // pre-pricing the directory, without the extra pass.
    let pos = decode_fused(payload, n, cpus, out)?;
    if pos != payload.len() {
        return None;
    }
    // The whole absorb, while the payload is still in L1 from the walk.
    ck.absorb_to(payload, pos);
    Some(())
}

/// One little-endian lane of constant width `W` at `pos`. The constant
/// width turns the read into a single fixed-size load — no variable
/// shift, no mask — with one bounds check. Returns `None` on overrun.
#[inline(always)]
fn read_lane<const W: usize>(payload: &[u8], pos: &mut usize) -> Option<u64> {
    let src = payload.get(*pos..*pos + W)?;
    let mut le = [0u8; 8];
    le[..W].copy_from_slice(src);
    *pos += W;
    Some(u64::from_le_bytes(le))
}

/// Reads the lane whose two-bit width `code` the directory declared.
/// Each arm monomorphises to a fixed-size load, so the only per-lane
/// branch is the (predictable) directory dispatch.
#[inline(always)]
fn read_coded_lane(payload: &[u8], pos: &mut usize, code: u8) -> Option<u64> {
    match code {
        0 => read_lane::<1>(payload, pos),
        1 => read_lane::<2>(payload, pos),
        2 => read_lane::<4>(payload, pos),
        _ => read_lane::<8>(payload, pos),
    }
}

/// Unfolds one event's delta plane at constant lane width: one bounds
/// check for the whole plane, then per lane unzigzag
/// (`(z >> 1) ⊕ −(z & 1)` leaves the signed delta's bit pattern), the
/// wrapping prefix add — the varint path's
/// `prev.wrapping_add(unzigzag(c) as u64)` exactly — and the `as f64`
/// widen the column fold would otherwise perform per count.
#[inline(always)]
fn unfold_plane<const W: usize>(
    payload: &[u8],
    pos: &mut usize,
    mut acc: u64,
    out: &mut [f64],
) -> Option<()> {
    let bytes = out.len() * W;
    let src = payload.get(*pos..*pos + bytes)?;
    for (slot, lane) in out.iter_mut().zip(src.chunks_exact(W)) {
        let mut le = [0u8; 8];
        le[..W].copy_from_slice(lane);
        let z = u64::from_le_bytes(le);
        acc = acc.wrapping_add((z >> 1) ^ 0u64.wrapping_sub(z & 1));
        *slot = acc as f64;
    }
    *pos += bytes;
    Some(())
}

/// The planar decode: a two-cursor walk — `bpos` over the bases
/// region, `ppos` over the planes region — that emits each event's
/// full f64 lane (base first, then the unfolded deltas) in one visit.
/// Integer-exact before the final widen, so bit-identical to the
/// varint path's delta chain by construction.
///
/// No in-walk checksum absorbs here: the caller's trailing
/// [`absorb_to`] pass runs over lines the walk just touched — the same
/// single read of the payload — while per-plane absorb calls would pay
/// watermark bookkeeping nine times for at most a handful of 16-byte
/// chunks (measured ≈ +18 ns/frame on 4-CPU fleets).
///
/// With no CPUs there are no lanes to emit; the walk still parses (and
/// prices) the bases region so trailing garbage is rejected exactly as
/// before.
///
/// [`absorb_to`]: PayloadChecksum::absorb_to
#[inline(always)]
fn decode_fused(payload: &[u8], n: usize, cpus: usize, out: &mut [f64]) -> Option<usize> {
    // Where the planes start: the directory declares every base width,
    // so the bases region's extent is known before walking it. Each
    // lane read below still bounds-checks, so a payload shorter than
    // this sum fails at the read, never at a slice index.
    let mut bases_end = n;
    for &b in &payload[..n] {
        bases_end += 1usize << (b & 0x0f);
    }
    let mut bpos = n;
    let mut ppos = bases_end;
    for e in 0..n {
        let base = read_coded_lane(payload, &mut bpos, payload[e] & 0x0f)?;
        if cpus == 0 {
            continue;
        }
        let dst = &mut out[e * cpus..(e + 1) * cpus];
        dst[0] = base as f64;
        match payload[e] >> 4 {
            0 => unfold_plane::<1>(payload, &mut ppos, base, &mut dst[1..]),
            1 => unfold_plane::<2>(payload, &mut ppos, base, &mut dst[1..]),
            2 => unfold_plane::<4>(payload, &mut ppos, base, &mut dst[1..]),
            _ => unfold_plane::<8>(payload, &mut ppos, base, &mut dst[1..]),
        }?;
    }
    Some(if cpus == 0 { bpos } else { ppos })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{FrameHeader, FrameType, HEADER_LEN};
    use crate::{encode_planar_sample_frame, EncodeError, WireEncoder};
    use proptest::prelude::*;
    use tdp_counters::{CounterSample, CpuId, InterruptSnapshot, PerfEvent};

    /// The per-lane encoder the gather/write pair replaced, kept as the
    /// byte-identity oracle: every lane re-reads its two counts through
    /// `per_cpu[cpu].counts()` and is appended at a runtime width.
    fn encode_payload_per_lane(buf: &mut Vec<u8>, set: &SampleSet) {
        let Some(first) = set.per_cpu.first() else {
            return;
        };
        let n = first.counts().len();
        let cpus = set.per_cpu.len();
        let count = |cpu: usize, e: usize| set.per_cpu[cpu].counts()[e].1;
        let zz =
            |cpu: usize, e: usize| zigzag(count(cpu, e).wrapping_sub(count(cpu - 1, e)) as i64);

        let dir_start = buf.len();
        for e in 0..n {
            let base_code = width_code(count(0, e));
            let delta_code = (1..cpus)
                .map(|cpu| width_code(zz(cpu, e)))
                .max()
                .unwrap_or(0);
            buf.push(delta_code << 4 | base_code);
        }
        for e in 0..n {
            let w = 1usize << (buf[dir_start + e] & 0x0f);
            buf.extend_from_slice(&count(0, e).to_le_bytes()[..w]);
        }
        for e in 0..n {
            let w = 1usize << (buf[dir_start + e] >> 4);
            for cpu in 1..cpus {
                buf.extend_from_slice(&zz(cpu, e).to_le_bytes()[..w]);
            }
        }
    }

    /// The planar payload of `set` through the gather/write pair,
    /// checked byte for byte against the per-lane oracle.
    fn encode_payload(set: &SampleSet) -> Vec<u8> {
        let mut scratch = PlanarScratch::default();
        scratch.gather(set).expect("well-formed set");
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
        SampleSet {
            time_ms: 1000,
            window_ms: 1000,
            seq: 1,
            per_cpu: counts
                .iter()
                .enumerate()
                .map(|(cpu, vals)| {
                    CounterSample::new(
                        CpuId::new(cpu as u8),
                        1,
                        events.iter().copied().zip(vals.iter().copied()).collect(),
                    )
                })
                .collect(),
            interrupts: InterruptSnapshot::default(),
        }
    }

    fn header_for(payload_len: usize, cpus: u16, n_events: u16) -> FrameHeader {
        FrameHeader {
            frame_type: FrameType::PlanarSample,
            payload_len: payload_len as u32,
            machine_id: 1,
            window_seq: 1,
            layout_hash: 0,
            cpu_count: cpus,
            n_events,
            checksum: 0,
        }
    }

    fn decode(payload: &[u8], n: usize, cpus: usize) -> Option<Vec<f64>> {
        let h = header_for(payload.len(), cpus as u16, n as u16);
        let mut out = Vec::new();
        let mut ck = PayloadChecksum::new(&h);
        decode_planes(payload, n, cpus, &mut out, &mut ck)?;
        // The in-walk absorb cadence must agree with the one-shot
        // checksum.
        assert_eq!(ck.finish(payload), h.expected_checksum(payload));
        Some(out)
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
        // deltas 1B (zigzag(127)=254, zigzag(-127)=253).
        assert_eq!(payload[0], 0x00);
        assert_eq!(payload[1], 0x13);
        assert_eq!(payload[2], 0x02);
        let out = decode(&payload, 3, 3).expect("clean payload");
        for e in 0..3 {
            for cpu in 0..3 {
                assert_eq!(
                    out[e * 3 + cpu].to_bits(),
                    (set.per_cpu[cpu].counts()[e].1 as f64).to_bits(),
                    "event {e} cpu {cpu}"
                );
            }
        }
    }

    #[test]
    fn structural_defects_are_rejected() {
        let set = set_of(&[vec![10, 20, 30], vec![11, 19, 31]]);
        let payload = encode_payload(&set);
        assert!(decode(&payload, 3, 2).is_some(), "clean baseline");
        // Bad directory nibble (width code > 3).
        let mut bad = payload.clone();
        bad[0] = 0x40;
        assert!(decode(&bad, 3, 2).is_none());
        let mut bad = payload.clone();
        bad[0] = 0x04;
        assert!(decode(&bad, 3, 2).is_none());
        // Truncated and padded payloads disagree with the directory.
        assert!(decode(&payload[..payload.len() - 1], 3, 2).is_none());
        let mut long = payload.clone();
        long.push(0);
        assert!(decode(&long, 3, 2).is_none());
        // Payload shorter than the directory itself.
        assert!(decode(&payload[..2], 3, 2).is_none());
    }

    #[test]
    fn i64_min_delta_selects_the_eight_byte_lane_and_roundtrips() {
        // A CPU-over-CPU step of exactly i64::MIN zigzags to u64::MAX —
        // the one value where a sign-magnitude width heuristic would
        // underprice the lane. It must take width code 3 and come back
        // bit-exact through the planar walk...
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
        let out = decode(&payload, 3, cpus).expect("wide frame");
        for cpu in 0..cpus {
            for e in 0..3 {
                assert_eq!(
                    out[e * cpus + cpu].to_bits(),
                    (rows[cpu][e] as f64).to_bits(),
                    "event {e} cpu {cpu}"
                );
            }
        }
    }

    #[test]
    fn corrupt_cpu_count_is_rejected_before_allocating() {
        // A flipped header can claim 65535 CPUs against a tiny payload;
        // the price floor must reject it before sizing the lane buffer.
        let set = set_of(&[vec![10, 20, 30], vec![11, 19, 31]]);
        let payload = encode_payload(&set);
        let h = header_for(payload.len(), u16::MAX, 3);
        let mut out = Vec::new();
        let mut ck = PayloadChecksum::new(&h);
        assert!(decode_planes(&payload, 3, 65535, &mut out, &mut ck).is_none());
        assert_eq!(out.capacity(), 0, "no lane-buffer growth on rejection");
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

    /// The planar sample payloads in `wire`, in stream order.
    fn sample_payloads(wire: &[u8]) -> Vec<&[u8]> {
        let mut out = Vec::new();
        let mut pos = 0;
        while pos < wire.len() {
            let h = FrameHeader::parse(&wire[pos..]).expect("well-formed stream");
            let payload = &wire[pos + HEADER_LEN..pos + HEADER_LEN + h.payload_len as usize];
            if h.frame_type == FrameType::PlanarSample {
                out.push(payload);
            }
            pos += HEADER_LEN + h.payload_len as usize;
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
    /// shuffled by `seed`. Each cell's selector picks a width-boundary
    /// value, a uniform draw from one width class, or (selector 15) a
    /// step of exactly `i64::MIN` over the previous CPU's count.
    fn boundary_set(cpus: usize, n: usize, seed: u64, cells: &[(u64, u8)]) -> SampleSet {
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
        let mut layout = PerfEvent::ALL.to_vec();
        let mut rng = seed | 1;
        for i in (1..layout.len()).rev() {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            layout.swap(i, (rng % (i as u64 + 1)) as usize);
        }
        layout.truncate(n);
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
                        _ => raw,
                    }
                })
                .collect();
            rows.push(row);
        }
        SampleSet {
            time_ms: 1000,
            window_ms: 1000,
            seq: 1,
            per_cpu: rows
                .iter()
                .enumerate()
                .map(|(cpu, vals)| {
                    let pairs = layout.iter().copied().zip(vals.iter().copied()).collect();
                    CounterSample::new(CpuId::new(cpu as u8), 1, pairs)
                })
                .collect(),
            interrupts: InterruptSnapshot::default(),
        }
    }

    proptest! {
        /// The gather/write pair emits the per-lane oracle's payload
        /// byte for byte, at every CPU count the format meets (none,
        /// one, a 4-way server, 32 and 65 CPUs) and with values on
        /// every width boundary — through the stateless frame function
        /// and through an encoder whose scratch last held another
        /// geometry.
        #[test]
        fn gathered_payload_matches_the_per_lane_oracle(
            cpus in (0usize..5).prop_map(|i| [0, 1, 4, 32, 65][i]),
            n in 0usize..19,
            seed in any::<u64>(),
            cells in prop::collection::vec((any::<u64>(), 0u8..16), 65 * 18),
        ) {
            let set = boundary_set(cpus, n, seed, &cells);
            let want = oracle(&set);
            let mut frame = Vec::new();
            encode_planar_sample_frame(&mut frame, 3, &set).unwrap();
            prop_assert_eq!(&frame[HEADER_LEN..], &want[..]);

            let mut enc = WireEncoder::new();
            let prime = boundary_set(65, 18, !seed, &cells);
            enc.push_sample_set(3, &prime).unwrap();
            enc.push_sample_set(3, &set).unwrap();
            let payloads = sample_payloads(enc.bytes());
            prop_assert_eq!(payloads[0], &oracle(&prime)[..]);
            prop_assert_eq!(payloads[1], &want[..]);
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
                    assert_eq!(set.per_cpu.len(), cpus);
                    assert_eq!(set.per_cpu[0].counts().len(), PerfEvent::ALL.len());
                    let mut frame = Vec::new();
                    encode_planar_sample_frame(&mut frame, m, &set).unwrap();
                    assert_eq!(frame[HEADER_LEN..], oracle(&set), "{cpus} CPUs");
                    enc.push_sample_set(m, &set).unwrap();
                    want.push(oracle(&set));
                }
            }
            assert_eq!(sample_payloads(enc.bytes()), want, "{cpus} CPUs");
        }
    }

    #[test]
    fn rejected_sets_leave_the_buffer_untouched() {
        let good = set_of(&[vec![10, 20, 30], vec![11, 19, 31]]);
        // A later CPU programs a different event in one slot...
        let mut swapped = good.clone();
        swapped.per_cpu[1] = CounterSample::new(
            CpuId::new(1),
            1,
            vec![
                (PerfEvent::Cycles, 11),
                (PerfEvent::TlbMisses, 19),
                (PerfEvent::L2Misses, 31),
            ],
        );
        // ...or fewer events; and a layout past the format's bound.
        let mut short = good.clone();
        short.per_cpu[1] = CounterSample::new(CpuId::new(1), 1, vec![(PerfEvent::Cycles, 11)]);
        let wide = SampleSet {
            per_cpu: vec![CounterSample::new(
                CpuId::new(0),
                1,
                vec![(PerfEvent::Cycles, 1); crate::frame::MAX_WIRE_EVENTS + 1],
            )],
            ..good.clone()
        };
        for (bad, err) in [
            (&swapped, EncodeError::MixedLayouts),
            (&short, EncodeError::MixedLayouts),
            (&wide, EncodeError::OutOfBounds),
        ] {
            let mut out = vec![0xa5; 7];
            assert_eq!(encode_planar_sample_frame(&mut out, 1, bad), Err(err));
            assert_eq!(out, [0xa5; 7], "stateless {err:?}");

            // A machine already announced, and one seen for the first
            // time (whose layout frame must be rolled back too).
            let mut enc = WireEncoder::new();
            enc.push_sample_set(1, &good).unwrap();
            let before = enc.bytes().to_vec();
            for m in [1, 2] {
                assert_eq!(enc.push_sample_set(m, bad), Err(err));
                assert_eq!(enc.bytes(), &before[..], "machine {m}, {err:?}");
            }
            // The scratch the failed gather left behind does not leak
            // into the next frame.
            enc.push_sample_set(1, &good).unwrap();
            let payloads = sample_payloads(enc.bytes());
            assert_eq!(payloads, [&oracle(&good)[..], &oracle(&good)[..]]);
        }
    }
}
