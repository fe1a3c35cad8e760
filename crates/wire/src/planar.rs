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
//! Because the deltas and the delta chain are identical to the varint
//! encoding's — and `count as f64` is the same IEEE rounding wherever
//! it is performed — a decoder reconstructs bit-identical fleet rows
//! from either payload, property-tested in `tests/planar.rs` across
//! random layouts and width-boundary values.

use crate::frame::PayloadChecksum;
use crate::varint::zigzag;
use tdp_counters::SampleSet;

/// The smallest width code (`0..=3`, meaning `1 << code` bytes) whose
/// lane holds `v`.
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

/// Appends the planar payload for `set` to `buf`: directory, bases,
/// then one delta plane per event.
///
/// The caller (`encode_planar_sample_frame`) has already validated the
/// set's geometry — uniform layouts, bounded event/CPU counts — so this
/// only lays out bytes. An empty set (no CPUs) produces an empty
/// payload.
pub(crate) fn encode_payload(buf: &mut Vec<u8>, set: &SampleSet) {
    let Some(first) = set.per_cpu.first() else {
        return;
    };
    let n = first.counts().len();
    let cpus = set.per_cpu.len();
    let count = |cpu: usize, e: usize| set.per_cpu[cpu].counts()[e].1;
    let zz = |cpu: usize, e: usize| zigzag(count(cpu, e).wrapping_sub(count(cpu - 1, e)) as i64);

    // Directory: per-event width codes from this window's value range.
    let dir_start = buf.len();
    for e in 0..n {
        let base_code = width_code(count(0, e));
        let delta_code = (1..cpus)
            .map(|cpu| width_code(zz(cpu, e)))
            .max()
            .unwrap_or(0);
        buf.push(delta_code << 4 | base_code);
    }
    // Bases: CPU 0 raw, little-endian at the declared width.
    for e in 0..n {
        let w = 1usize << (buf[dir_start + e] & 0x0f);
        buf.extend_from_slice(&count(0, e).to_le_bytes()[..w]);
    }
    // Delta planes: contiguous per event, fixed-width zigzag deltas.
    for e in 0..n {
        let w = 1usize << (buf[dir_start + e] >> 4);
        for cpu in 1..cpus {
            buf.extend_from_slice(&zz(cpu, e).to_le_bytes()[..w]);
        }
    }
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
    use crate::frame::{FrameHeader, FrameType};
    use tdp_counters::{CounterSample, CpuId, InterruptSnapshot, PerfEvent};

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
        let mut payload = Vec::new();
        encode_payload(&mut payload, &set);
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
        let mut payload = Vec::new();
        encode_payload(&mut payload, &set);
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
        let mut payload = Vec::new();
        encode_payload(&mut payload, &set);
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
        let mut payload = Vec::new();
        encode_payload(&mut payload, &wide);
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
        let mut payload = Vec::new();
        encode_payload(&mut payload, &set);
        let h = header_for(payload.len(), u16::MAX, 3);
        let mut out = Vec::new();
        let mut ck = PayloadChecksum::new(&h);
        assert!(decode_planes(&payload, 3, 65535, &mut out, &mut ck).is_none());
        assert_eq!(out.capacity(), 0, "no lane-buffer growth on rejection");
    }

    #[test]
    fn single_cpu_and_empty_frames_decode() {
        let set = set_of(&[vec![7, 300, u64::MAX]]);
        let mut payload = Vec::new();
        encode_payload(&mut payload, &set);
        let out = decode(&payload, 3, 1).expect("single CPU");
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].to_bits(), 7.0f64.to_bits());
        assert_eq!(out[1].to_bits(), 300.0f64.to_bits());
        assert_eq!(out[2].to_bits(), (u64::MAX as f64).to_bits());
        // No CPUs: empty payload, nothing decoded.
        let empty = set_of(&[]);
        let mut payload = Vec::new();
        encode_payload(&mut payload, &empty);
        assert!(payload.is_empty());
        assert_eq!(decode(&payload, 0, 0), Some(Vec::new()));
    }
}
