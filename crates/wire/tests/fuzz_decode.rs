//! Property/fuzz tests for the frame cursor and decoder: arbitrary
//! bytes never panic, the cursor's items exactly partition its input,
//! the payload walk never sizes its lane buffer past the format's CPU
//! bound, damaged streams ingest deterministically, and a resync always
//! recovers the next intact frame.

use proptest::prelude::*;
use tdp_counters::{PerfEvent, SampleSet};
use tdp_fleet::{FleetEstimator, ROW_EVENTS};
use tdp_wire::frame::{HEADER_LEN, MAX_WIRE_CPUS};
use tdp_wire::planar::{decode_planes, NO_SLOT};
use tdp_wire::{ingest_serial, CursorItem, FrameCursor, StreamReport, WireEncoder};
use trickledown::SystemPowerModel;

/// A plain plausible machine-window (fixed counts in each model's
/// operating range; these tests fuzz the byte stream, not the data).
fn plain_set(seq: u64) -> SampleSet {
    let mut set = SampleSet::empty();
    set.seq = seq;
    let block = set.reset(ROW_EVENTS, 2);
    for (plane, &e) in block.chunks_mut(2).zip(&ROW_EVENTS) {
        let v: u64 = match e {
            PerfEvent::Cycles => 2_000_000_000,
            PerfEvent::HaltedCycles => 800_000_000,
            PerfEvent::FetchedUops => 2_400_000_000,
            PerfEvent::L3LoadMisses => 3_000_000,
            PerfEvent::BusTransactionsAll => 22_000_000,
            PerfEvent::DmaOtherBusTransactions => 1_200_000,
            PerfEvent::InterruptsTotal => 5_000,
            PerfEvent::TimerInterrupts => 2_000,
            PerfEvent::DiskInterrupts => 800,
            _ => 0,
        };
        // CPU c reads v + c.
        plane.copy_from_slice(&[v, v + 1]);
    }
    set
}

fn valid_stream(machines: u64) -> Vec<u8> {
    let mut enc = WireEncoder::new();
    for m in 0..machines {
        enc.push_sample_set(m, &plain_set(1)).unwrap();
    }
    enc.finish()
}

/// Walks `buf` with a [`FrameCursor`], asserting the partition
/// invariant: frame extents and resync skips exactly tile the buffer,
/// in order, with no gaps and no overlap. Returns `(frames, resyncs)`.
fn walk_partition(buf: &[u8]) -> Result<(u64, u64), String> {
    let mut pos = 0usize;
    let (mut frames, mut resyncs) = (0u64, 0u64);
    for item in FrameCursor::new(buf) {
        match item {
            CursorItem::Frame { start, header } => {
                if start != pos {
                    return Err(format!("frame at {start}, cursor position {pos}"));
                }
                pos += HEADER_LEN + header.payload_len as usize;
                frames += 1;
            }
            CursorItem::Resync { skipped } => {
                if skipped == 0 {
                    return Err("zero-length resync would not terminate".into());
                }
                pos += skipped;
                resyncs += 1;
            }
        }
        if pos > buf.len() {
            return Err(format!("cursor overran: {pos} > {}", buf.len()));
        }
    }
    if pos != buf.len() {
        return Err(format!("cursor stopped at {pos} of {}", buf.len()));
    }
    Ok((frames, resyncs))
}

fn ingest(buf: &[u8], machines: usize) -> StreamReport {
    let mut est = FleetEstimator::new(SystemPowerModel::paper());
    ingest_serial(buf, machines, &mut est)
}

proptest! {
    /// Arbitrary bytes: the cursor never panics, never loops, and its
    /// items partition the input exactly.
    #[test]
    fn arbitrary_bytes_partition_cleanly(
        buf in prop::collection::vec(any::<u8>(), 0..2048),
    ) {
        walk_partition(&buf)?;
        // Full ingest over garbage: no panic, and accounting stays
        // within the input (can't resync more bytes than exist).
        let rep = ingest(&buf, 8);
        prop_assert!(rep.resync_bytes <= buf.len() as u64);
        prop_assert!(rep.rows_written <= 8);
    }

    /// Arbitrary payload bytes under an arbitrary header geometry: the
    /// payload walk never panics, and whatever it accepts or rejects,
    /// the row-lane buffer never exceeds nine lanes of
    /// `MAX_WIRE_CPUS` — a forged `cpu_count` cannot buy more, even
    /// though zero planes store no bytes.
    #[test]
    fn arbitrary_payloads_never_outgrow_the_lane_bound(
        payload in prop::collection::vec(any::<u8>(), 0..512),
        picks in prop::collection::vec(0u8..10, 0..64),
        // Small counts, the bound's neighbourhood, and any 16-bit value.
        cpus in (0u8..3, any::<u16>()).prop_map(|(class, raw)| match class {
            0 => raw % 40,
            1 => MAX_WIRE_CPUS as u16 - 1 + raw % 3,
            _ => raw,
        }),
        zero_planes in any::<bool>(),
    ) {
        // Directory bytes of zero bases and zero planes make the
        // smallest payload that can claim the most CPUs.
        let mut payload = payload;
        if zero_planes {
            for b in payload.iter_mut().take(picks.len()) {
                *b = 0x44;
            }
        }
        let rows = ROW_EVENTS.len();
        let slots: Vec<u8> = picks.iter().map(|&p| if p as usize >= rows { NO_SLOT } else { p }).collect();
        let mut out = Vec::new();
        let ok = decode_planes(&payload, &slots, rows, cpus as usize, &mut out);
        prop_assert!(out.len() <= rows * MAX_WIRE_CPUS);
        prop_assert!(ok.is_none() || cpus as usize <= MAX_WIRE_CPUS);
    }

    /// A valid stream cut at an arbitrary point: ingest never panics,
    /// is deterministic (same bytes, same report), and whatever decodes
    /// is a prefix-subset of the fleet.
    #[test]
    fn truncated_streams_ingest_deterministically(
        cut_frac in 0.0f64..1.0,
        machines in 1u64..8,
    ) {
        let full = valid_stream(machines);
        let cut = (cut_frac * full.len() as f64) as usize;
        let buf = &full[..cut.min(full.len())];
        let a = ingest(buf, machines as usize);
        let b = ingest(buf, machines as usize);
        prop_assert_eq!(a, b, "identical bytes must ingest identically");
        prop_assert!(a.rows_written <= machines);
        prop_assert!(a.resync_bytes <= buf.len() as u64);
    }

    /// Arbitrary multi-bit corruption of a valid stream: never a panic,
    /// and counters always account for the whole walk (frames attempted
    /// are bounded by frames present in the pristine stream plus
    /// whatever phantom frames corruption fabricates — all of which end
    /// in a counted outcome, never a silent stall).
    #[test]
    fn corrupted_streams_never_panic(
        flips in prop::collection::vec((any::<usize>(), 0u8..8), 1..24),
        machines in 1u64..6,
    ) {
        let mut buf = valid_stream(machines);
        for &(at, bit) in &flips {
            let i = at % buf.len();
            buf[i] ^= 1 << bit;
        }
        walk_partition(&buf)?;
        let rep = ingest(&buf, machines as usize);
        prop_assert_eq!(rep, ingest(&buf, machines as usize));
    }
}

#[test]
fn resync_recovers_the_next_intact_frame() {
    // machine 0's frames, then a run of junk free of the magic prefix
    // byte, then machine 1's frames (fresh encoder, so its layout is
    // announced after the junk). The decoder must skip the junk in one
    // resync and ingest machine 1 untouched.
    let mut enc0 = WireEncoder::new();
    enc0.push_sample_set(0, &plain_set(1)).unwrap();
    let mut enc1 = WireEncoder::new();
    enc1.push_sample_set(1, &plain_set(1)).unwrap();

    let mut buf = enc0.finish();
    let junk: Vec<u8> = (0..37u8)
        .map(|b| if b == 0x54 { 0x55 } else { b })
        .collect();
    buf.extend_from_slice(&junk);
    buf.extend_from_slice(&enc1.finish());

    let (frames, resyncs) = walk_partition(&buf).unwrap();
    assert_eq!(frames, 4, "layout + sample per machine");
    assert_eq!(resyncs, 1, "the junk run is exactly one resync");

    let rep = ingest(&buf, 2);
    assert_eq!(rep.rows_written, 2, "both machines decode around the junk");
    assert_eq!(rep.resyncs, 1);
    assert_eq!(rep.resync_bytes, junk.len() as u64);
    assert_eq!(rep.corrupt_frames, 0);
}

#[test]
fn mid_frame_cut_before_good_frames_is_skipped_not_fatal() {
    // A stream whose first frame is cut off mid-payload (its tail
    // replaced by magic-free junk) followed by an intact machine: the
    // classic "writer died mid-frame, log rotated, writer resumed".
    let mut enc0 = WireEncoder::new();
    enc0.push_sample_set(0, &plain_set(1)).unwrap();
    let damaged = enc0.finish();
    // Keep the first frame's header plus a few payload bytes, then junk
    // the rest of its extent so the checksum cannot hold.
    let keep = HEADER_LEN + 3;
    let mut buf = damaged[..keep].to_vec();
    buf.extend(std::iter::repeat_n(0x22u8, 20));

    let mut enc1 = WireEncoder::new();
    enc1.push_sample_set(1, &plain_set(1)).unwrap();
    buf.extend_from_slice(&enc1.finish());

    let rep = ingest(&buf, 2);
    assert_eq!(
        rep.rows_written, 1,
        "machine 1 decodes despite the mangled prefix"
    );
    assert!(
        rep.corrupt_frames + rep.resyncs >= 1,
        "the mangled prefix must be detected, got {rep:?}"
    );
}
