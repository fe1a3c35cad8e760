//! End-to-end guarantees of the wire codec and ingest: wire ingestion
//! is bit-identical to in-memory ingestion, silent machines follow the
//! documented hold ladder, and every single-bit corruption of a frame
//! is detected, never silently ingested.

mod common;

use common::synthetic_set;
use tdp_counters::{PerfEvent, SampleSet};
use tdp_fleet::{FleetEstimator, COLUMNS, ROW_EVENTS};
use tdp_simsys::behavior::spin_loop_behavior;
use tdp_simsys::{Machine, MachineConfig};
use tdp_wire::frame::{BodyHead, FrameHeader, FrameType};
use tdp_wire::varint::read_uvarint;
use tdp_wire::{
    encode_layout_frame, encode_sample_frame, ingest_serial, ingest_serial_with, CursorItem,
    DecodeError, FrameCursor, FrameDecoder, HealthState, IngestState, WireEncoder,
    MAX_STALE_WINDOWS,
};
use trickledown::SystemPowerModel;

fn fleet_window(machines: u64) -> Vec<SampleSet> {
    (0..machines)
        .map(|m| synthetic_set(m, 3, &ROW_EVENTS, false))
        .collect()
}

/// One counter window from each of `machines` simulated servers with
/// `cpus` CPUs, in distinct load states. Every `Machine` programs all
/// 18 `PerfEvent`s; the agent encoder ships their nine row events in
/// declaration order, not `ROW_EVENTS` order, so these frames carry
/// the non-identity layout real producers send.
fn simulated_window(cpus: usize, machines: u64) -> Vec<SampleSet> {
    (0..machines)
        .map(|m| {
            let mut cfg = MachineConfig::default();
            cfg.seed ^= m;
            cfg.cpu.num_cpus = cpus;
            let mut machine = Machine::new(cfg);
            for t in 0..m {
                machine
                    .os_mut()
                    .spawn(Box::new(spin_loop_behavior(0.4 + 0.3 * t as f64)), 0);
            }
            for _ in 0..50 + m * 13 {
                machine.tick();
            }
            let set = machine.read_counters();
            assert_eq!(set.num_cpus(), cpus);
            assert_eq!(set.events(), PerfEvent::ALL);
            set.clone()
        })
        .collect()
}

/// Appends `set` for `machine` exactly as given — every plane, in the
/// set's order, under a layout frame — through the stateless frame
/// functions, so the decoder meets layouts the agent encoder would
/// project onto the row events.
fn encode_raw(out: &mut Vec<u8>, machine: u64, set: &SampleSet) {
    encode_layout_frame(out, machine, 0, set).unwrap();
    encode_sample_frame(out, machine, 0, set).unwrap();
}

fn encode_window(sets: &[SampleSet]) -> Vec<u8> {
    let mut enc = WireEncoder::new();
    for (id, set) in sets.iter().enumerate() {
        enc.push_sample_set(id as u64, set).unwrap();
    }
    enc.finish()
}

/// Ingests in-memory and returns the batch columns + estimates as bits.
fn in_memory_bits(sets: &[SampleSet]) -> (Vec<Vec<u64>>, Vec<u64>) {
    let mut est = FleetEstimator::new(SystemPowerModel::paper());
    est.begin_window();
    for set in sets {
        est.push_sample_set(set);
    }
    let totals = est.estimate().total().iter().map(|v| v.to_bits()).collect();
    let cols = est
        .batch()
        .columns()
        .iter()
        .map(|c| c.iter().map(|v| v.to_bits()).collect())
        .collect();
    (cols, totals)
}

fn batch_bits(est: &FleetEstimator) -> Vec<Vec<u64>> {
    est.batch()
        .columns()
        .iter()
        .map(|c| c.iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn wire_ingestion_is_bit_identical_to_in_memory() {
    // The synthetic nine-event fleet, plus 4- and 32-CPU simulated
    // servers programming all 18 events.
    for (label, sets) in [
        ("synthetic", fleet_window(37)),
        ("4-cpu machines", simulated_window(4, 6)),
        ("32-cpu machines", simulated_window(32, 3)),
    ] {
        let n = sets.len();
        let wire = encode_window(&sets);
        let (want_cols, want_totals) = in_memory_bits(&sets);

        let mut est = FleetEstimator::new(SystemPowerModel::paper());
        let report = ingest_serial(&wire, n, &mut est);
        assert_eq!(report.rows_written, n as u64, "{label}");
        assert_eq!(report.sample_frames, n as u64, "{label}");
        assert_eq!(
            report.layout_frames, n as u64,
            "{label}: one layout frame per machine"
        );
        assert_eq!(report.corrupt_frames + report.resyncs, 0, "{label}");

        assert_eq!(
            batch_bits(&est),
            want_cols,
            "{label}: columns must match bit for bit"
        );
        let totals: Vec<u64> = est.estimate().total().iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            totals, want_totals,
            "{label}: estimates must match bit for bit"
        );
    }
}

#[test]
fn row_lanes_never_carry_over_between_frames() {
    // One stream in which, frame after frame, machines rotate between
    // the full 18-event layout, one without two row events (disk
    // interrupts, DMA) and one listing disk interrupts twice, and
    // alternate between 4 and 32 CPUs — within each window and, machine
    // by machine, across windows. A frame whose layout lacks a row event
    // reads zeros there, never the lane the previous same-sized frame
    // left in the decoder; a repeated event reads its first occurrence.
    // The frames carry the sets as given (the agent encoder would drop
    // the non-row events and the repeat), so the decoder's skip path
    // runs.
    const MACHINES: usize = 8;
    let four = simulated_window(4, 4);
    let wide = simulated_window(32, 4);
    let omitted = [
        PerfEvent::DiskInterrupts,
        PerfEvent::DmaOtherBusTransactions,
    ];
    let mut state = IngestState::new();
    let mut est = FleetEstimator::new(SystemPowerModel::paper());
    for w in 0..6u64 {
        let sets: Vec<SampleSet> = (0..MACHINES)
            .map(|m| {
                let flip = w as usize % 2;
                let src = &[&four, &wide][(m / 2 + flip) % 2][m % 4];
                let variant = (m + w as usize) % 3;
                let mut layout: Vec<PerfEvent> = src
                    .events()
                    .iter()
                    .copied()
                    .filter(|e| variant != 1 || !omitted.contains(e))
                    .collect();
                if variant == 2 {
                    layout.push(PerfEvent::DiskInterrupts);
                }
                let cpus = src.num_cpus();
                let mut set = SampleSet::empty();
                set.seq = w;
                let block = set.reset(layout.iter().copied(), cpus);
                for (i, n) in block.iter_mut().enumerate() {
                    let (e, c) = (i / cpus, i % cpus);
                    // Spinning machines raise no disk interrupts or
                    // DMA; give both events counts, so a stale lane
                    // would show.
                    *n = if variant == 2 && e == layout.len() - 1 {
                        7_777 + c as u64
                    } else if omitted.contains(&layout[e]) {
                        300 + 11 * c as u64 + 97 * m as u64
                    } else {
                        src.plane(layout[e]).unwrap()[c]
                    };
                }
                set
            })
            .collect();
        let mut buf = Vec::new();
        for (id, set) in sets.iter().enumerate() {
            encode_raw(&mut buf, id as u64, set);
        }
        let rep = ingest_serial_with(&mut state, &buf, MACHINES, &mut est);
        assert_eq!(rep.rows_written, MACHINES as u64, "window {w}");
        assert_eq!(rep.corrupt_frames + rep.unknown_layout_frames, 0);

        let mut want = FleetEstimator::new(SystemPowerModel::paper());
        want.process_window(&sets);
        assert_eq!(batch_bits(&est), batch_bits(&want), "window {w}");
    }
}

#[test]
fn every_single_bit_flip_is_detected() {
    // A small stream: two machines, layout + sample frame each.
    let sets = fleet_window(2);
    let wire = encode_window(&sets);
    let mut pristine = FleetEstimator::new(SystemPowerModel::paper());
    let base = ingest_serial(&wire, 2, &mut pristine);
    assert_eq!(base.corrupt_frames + base.resyncs, 0);
    let clean_cols = batch_bits(&pristine);

    for byte in 0..wire.len() {
        for bit in 0..8 {
            let mut bad = wire.clone();
            bad[byte] ^= 1 << bit;
            let mut est = FleetEstimator::new(SystemPowerModel::paper());
            let report = ingest_serial(&bad, 2, &mut est);
            let detections = report.corrupt_frames
                + report.resyncs
                + report.unknown_layout_frames
                + report.out_of_range_frames;
            // Every stored bit is covered: magic/version/type flips
            // fail their equality checks (resync), and everything else
            // — including the length and checksum fields — feeds the
            // bijective checksum mix.
            assert!(
                detections > 0,
                "flip of byte {byte} bit {bit} was silently accepted"
            );
            // And a detected frame is dropped, never half-ingested:
            // whatever rows were written match the pristine extraction.
            for (clean_col, col) in clean_cols.iter().zip(batch_bits(&est)) {
                for (m, (&clean, bits)) in clean_col.iter().zip(col).enumerate() {
                    assert!(
                        bits == clean || bits == 0f64.to_bits(),
                        "byte {byte} bit {bit}: machine {m} row silently altered"
                    );
                }
            }
        }
    }
}

#[test]
fn a_corrupt_frame_fails_its_checksum_before_anything_else() {
    // Verify, then decode: whatever a flipped bit makes a frame name —
    // another machine, sequence, epoch or event count, a shorter body,
    // the other frame type — a decoder that knows the layout reports
    // the corruption, never a structural verdict. Every bit past magic
    // and version is flipped; only a flip that leaves no frame to
    // decode (another type nibble, a length that overruns) resyncs
    // instead.
    let wire = encode_window(&fleet_window(1));
    let frames: Vec<&[u8]> = FrameCursor::new(&wire)
        .map(|item| match item {
            CursorItem::Frame { start, header } => &wire[start..start + header.frame_len()],
            other => panic!("clean stream resynced: {other:?}"),
        })
        .collect();
    assert_eq!(frames.len(), 2, "one layout frame, one sample frame");
    let mut dec = FrameDecoder::new();
    dec.grow_machines(1);
    for frame in &frames {
        let h = FrameHeader::parse(frame).unwrap();
        assert!(dec.decode_frame(&h, &frame[h.header_len()..]).is_ok());
    }
    for frame in &frames {
        let pristine = FrameHeader::parse(frame).unwrap();
        let (mut switched, mut decoded) = (0, 0);
        for byte in 2..frame.len() {
            for bit in 0..8 {
                if byte == 2 && bit >= 4 {
                    continue; // the version nibble
                }
                let mut bad = frame.to_vec();
                bad[byte] ^= 1 << bit;
                let cursor = FrameCursor::new(&bad);
                let Some(CursorItem::Frame { start: 0, header }) = cursor.clone().next() else {
                    continue;
                };
                switched += usize::from(header.frame_type != pristine.frame_type);
                let got = dec.decode_frame(&header, cursor.body(0, &header));
                assert_eq!(got, Err(DecodeError::Checksum), "byte {byte} bit {bit}");
                decoded += 1;
            }
        }
        assert_eq!(switched, 1, "the frame-type flip was exercised");
        let past_prefix = 8 * (frame.len() - usize::from(pristine.prefix_len));
        assert!(
            decoded > past_prefix,
            "every flip past the prefix and some in it: {decoded}"
        );
    }
}

/// The frames of `wire` of one type, in stream order.
fn only(wire: &[u8], frame_type: FrameType) -> Vec<u8> {
    FrameCursor::new(wire)
        .flat_map(|item| match item {
            CursorItem::Frame { start, header } if header.frame_type == frame_type => {
                &wire[start..start + header.frame_len()]
            }
            _ => &[],
        })
        .copied()
        .collect()
}

#[test]
fn a_bit_flip_past_the_framing_prefix_rejects_only_its_own_frame() {
    // Three machines announce their layouts in window 0 and send sample
    // frames only in window 1. Every bit past the framing prefix of
    // every frame is flipped in turn: the damaged frame alone is
    // rejected, with no resync, and every frame after it decodes — a
    // machine whose layout frame was hit is unknown for that window's
    // sample, never misread — while the other machines' rows match a
    // clean run bit for bit.
    const MACHINES: usize = 3;
    let window = |seq: u64| -> Vec<SampleSet> {
        (0..MACHINES as u64)
            .map(|m| synthetic_set(m, seq, &ROW_EVENTS, false))
            .collect()
    };
    let mut enc = WireEncoder::new();
    for (m, set) in window(0).iter().enumerate() {
        enc.push_sample_set(m as u64, set).unwrap();
    }
    let first = enc.take_bytes();
    for (m, set) in window(1).iter().enumerate() {
        enc.push_sample_set(m as u64, set).unwrap();
    }
    let second = enc.take_bytes();
    let clean = in_memory_bits(&window(1)).0;
    for (w, wire) in [&first, &second].into_iter().enumerate() {
        let frames: Vec<(usize, FrameHeader)> = FrameCursor::new(wire)
            .map(|item| match item {
                CursorItem::Frame { start, header } => (start, header),
                other => panic!("clean stream resynced: {other:?}"),
            })
            .collect();
        assert_eq!(frames.len(), MACHINES * (2 - w));
        for (i, &(start, header)) in frames.iter().enumerate() {
            let hit = i / (2 - w);
            let from = start + usize::from(header.prefix_len);
            for byte in from..start + header.frame_len() {
                for bit in 0..8 {
                    let mut bad = wire.clone();
                    bad[byte] ^= 1 << bit;
                    let mut state = IngestState::new();
                    let mut est = FleetEstimator::new(SystemPowerModel::paper());
                    let ctx = format!("window {w} frame {i} byte {byte} bit {bit}");
                    let first = if w == 0 { &bad } else { &first };
                    let rep = ingest_serial_with(&mut state, first, MACHINES, &mut est);
                    if w == 1 {
                        assert_eq!(rep.rows_written, MACHINES as u64, "{ctx}");
                        let rep = ingest_serial_with(&mut state, &bad, MACHINES, &mut est);
                        assert_eq!((rep.corrupt_frames, rep.resyncs), (1, 0), "{ctx}");
                        assert_eq!(rep.rows_held, 1, "{ctx}");
                    } else {
                        assert_eq!((rep.corrupt_frames, rep.resyncs), (1, 0), "{ctx}");
                        let unknown = u64::from(header.frame_type == FrameType::Layout);
                        assert_eq!(rep.unknown_layout_frames, unknown, "{ctx}");
                        assert_eq!(rep.rows_written, MACHINES as u64 - 1, "{ctx}");
                        ingest_serial_with(&mut state, &second, MACHINES, &mut est);
                    }
                    let got = batch_bits(&est);
                    for (c, (got, want)) in got.iter().zip(&clean).enumerate() {
                        for m in (0..MACHINES).filter(|&m| m != hit) {
                            assert_eq!(got[m], want[m], "{ctx}: column {c} machine {m}");
                        }
                    }
                }
            }
        }
    }
}

/// `set`'s first `cpus` CPUs, or its CPUs repeated up to `cpus`.
fn with_cpus(set: &SampleSet, cpus: usize) -> SampleSet {
    let mut out = SampleSet::empty();
    out.seq = set.seq;
    let from = set.num_cpus();
    let block = out.reset(set.events().iter().copied(), cpus);
    for (e, plane) in block.chunks_mut(cpus).enumerate() {
        for (c, n) in plane.iter_mut().enumerate() {
            *n = set.counts()[e * from + c % from];
        }
    }
    out
}

#[test]
fn a_lost_reannouncement_is_an_unknown_layout_never_a_misattributed_row() {
    // Machine 0 reprograms its PMU every window (the row events, then
    // reversed) and machine 1 changes only its CPU count (4 ↔ 2), each
    // change a new layout epoch. Every announcement arrives until
    // machine 0's epoch has wrapped past 255; then both machines'
    // re-announcements are lost for one window. Their sample frames are
    // reported unknown, and their rows hold at the last good window, not
    // the new counts read through the old layout. The next
    // announcements decode again.
    let mut reversed = ROW_EVENTS;
    reversed.reverse();
    let sets = |w: u64| -> [SampleSet; 2] {
        let layout: &[PerfEvent] = if w.is_multiple_of(2) {
            &ROW_EVENTS
        } else {
            &reversed
        };
        let m1 = synthetic_set(1, w, &ROW_EVENTS, false);
        [
            synthetic_set(0, w, layout, false),
            with_cpus(&m1, if w.is_multiple_of(2) { 4 } else { 2 }),
        ]
    };
    let mut enc = WireEncoder::new();
    let mut state = IngestState::new();
    let mut est = FleetEstimator::new(SystemPowerModel::paper());
    let lost = 258u64;
    for w in 0..lost + 3 {
        let window = sets(w);
        for (m, set) in window.iter().enumerate() {
            enc.push_sample_set(m as u64, set).unwrap();
        }
        let mut wire = enc.take_bytes();
        let ctx = format!("window {w}");
        if w == lost {
            wire = only(&wire, FrameType::Sample);
            // Each window moved both machines to their next epoch, so
            // the lost ones have wrapped past 255.
            for item in FrameCursor::new(&wire) {
                let CursorItem::Frame { start, header } = item else {
                    panic!("clean stream resynced");
                };
                let body = &wire[start + header.header_len()..start + header.frame_len()];
                assert_eq!(BodyHead::read(body).unwrap().0.epoch, (lost % 256) as u8);
            }
            let held = in_memory_bits(&sets(w - 1)).0;
            let rep = ingest_serial_with(&mut state, &wire, 2, &mut est);
            assert_eq!(rep.unknown_layout_frames, 2, "{ctx}");
            assert_eq!((rep.rows_held, rep.corrupt_frames), (2, 0), "{ctx}");
            assert_eq!(batch_bits(&est), held, "{ctx}: rows hold");
            continue;
        }
        let rep = ingest_serial_with(&mut state, &wire, 2, &mut est);
        assert_eq!((rep.layout_frames, rep.rows_written), (2, 2), "{ctx}");
        assert!(rep.health().is_clean(), "{ctx}: {}", rep.health());
        assert_eq!(batch_bits(&est), in_memory_bits(&window).0, "{ctx}");
    }
}

#[test]
fn a_machine_back_from_a_fleet_shrink_decodes_without_a_reannouncement() {
    // One long-lived producer: 4 machines announce, the fleet shrinks
    // to 2 for a window, and machines 2–3 come back sending sample
    // frames only. Their layout bindings outlived the shrink, so they
    // decode at once.
    let mut enc = WireEncoder::new();
    let mut state = IngestState::new();
    let mut est = FleetEstimator::new(SystemPowerModel::paper());
    for (w, machines) in [(0u64, 4usize), (1, 2), (2, 4)] {
        let sets: Vec<SampleSet> = (0..machines as u64)
            .map(|m| synthetic_set(m, w, &ROW_EVENTS, false))
            .collect();
        for (m, set) in sets.iter().enumerate() {
            enc.push_sample_set(m as u64, set).unwrap();
        }
        let rep = ingest_serial_with(&mut state, &enc.take_bytes(), machines, &mut est);
        let announced = if w == 0 { 4 } else { 0 };
        assert_eq!(rep.layout_frames, announced, "window {w}");
        assert_eq!(rep.rows_written, machines as u64, "window {w}");
        assert!(rep.health().is_clean(), "window {w}: {}", rep.health());
        assert_eq!(batch_bits(&est), in_memory_bits(&sets).0, "window {w}");
    }

    // The same shrink under decimation-4 grants: the negotiated
    // decimation outlives the shrink with the binding, so a machine
    // back from it has its silent windows reconstructed, never held.
    let mut enc = WireEncoder::new();
    let mut state = IngestState::new();
    let mut est = FleetEstimator::new(SystemPowerModel::paper());
    for m in 0..4 {
        enc.set_decimation(m, 4);
    }
    for w in 0..16u64 {
        let machines = if w == 8 { 2 } else { 4 };
        for m in 0..machines as u64 {
            if enc.should_send(m, w) {
                let set = synthetic_set(m, w, &ROW_EVENTS, false);
                enc.push_sample_set(m, &set).unwrap();
            }
        }
        let rep = ingest_serial_with(&mut state, &enc.take_bytes(), machines, &mut est);
        assert_eq!(rep.layout_frames, if w == 0 { 4 } else { 0 }, "window {w}");
        assert!(rep.health().is_clean(), "window {w}: {}", rep.health());
        if w >= 11 {
            // Machines 2 and 3 have sent again (windows 10 and 11).
            assert_eq!(rep.rows_written, 4, "window {w}");
            assert_eq!(rep.rows_reconstructed, 3, "window {w}");
        }
    }
    for m in 0..4 {
        assert_eq!(
            state.machine_health(m),
            Some(HealthState::Healthy),
            "machine {m}"
        );
    }
}

#[test]
fn mid_stream_layout_change_never_misattributes_columns() {
    // Machine 0 reprograms its PMU mid-stream: same events reordered,
    // then an extended list with extra (irrelevant) events in front.
    let mut reordered = ROW_EVENTS;
    reordered.reverse();
    let extended: Vec<PerfEvent> = [PerfEvent::TlbMisses, PerfEvent::L2Misses]
        .iter()
        .chain(ROW_EVENTS.iter())
        .copied()
        .collect();

    let windows = [
        synthetic_set(0, 0, &ROW_EVENTS, false),
        synthetic_set(0, 1, &reordered, false),
        synthetic_set(0, 2, &extended, false),
    ];

    for (seq, set) in windows.iter().enumerate() {
        // Wire path: encode this window alone (the encoder emits a
        // fresh layout frame at each change) and ingest it.
        let mut enc = WireEncoder::new();
        enc.push_sample_set(0, set).unwrap();
        let wire = enc.finish();
        let mut est = FleetEstimator::new(SystemPowerModel::paper());
        let report = ingest_serial(&wire, 1, &mut est);
        assert_eq!(report.rows_written, 1, "window {seq}");
        assert_eq!(report.corrupt_frames + report.unknown_layout_frames, 0);

        // In-memory reference for the same set.
        let mut reference = FleetEstimator::new(SystemPowerModel::paper());
        reference.begin_window();
        reference.push_sample_set(set);
        assert_eq!(
            batch_bits(&est),
            batch_bits(&reference),
            "window {seq}: wire row must match in-memory extraction"
        );
    }

    // And as one continuous stream: three windows, three layout frames.
    let mut enc = WireEncoder::new();
    for set in &windows {
        enc.push_sample_set(0, set).unwrap();
    }
    let wire = enc.finish();
    let mut est = FleetEstimator::new(SystemPowerModel::paper());
    let report = ingest_serial(&wire, 1, &mut est);
    assert_eq!(report.layout_frames, 3, "each reprogramming re-announces");
    assert_eq!(report.sample_frames, 3);
    assert_eq!(report.corrupt_frames + report.unknown_layout_frames, 0);

    // The surviving row is the last window's; it must equal the
    // in-memory extraction of that window.
    let mut reference = FleetEstimator::new(SystemPowerModel::paper());
    reference.begin_window();
    reference.push_sample_set(&windows[2]);
    assert_eq!(batch_bits(&est), batch_bits(&reference));

    // The agent encoder projects the extended list back onto the row
    // events, so only the raw frame functions put `TlbMisses` and
    // `L2Misses` in front on the wire: every row plane then sits two
    // places later, and each window must still decode to its own row.
    let mut est = FleetEstimator::new(SystemPowerModel::paper());
    let mut state = IngestState::new();
    for (seq, set) in windows.iter().enumerate() {
        let mut wire = Vec::new();
        encode_raw(&mut wire, 0, set);
        let report = ingest_serial_with(&mut state, &wire, 1, &mut est);
        assert_eq!(report.rows_written, 1, "raw window {seq}");
        assert_eq!(report.corrupt_frames + report.unknown_layout_frames, 0);
        let mut reference = FleetEstimator::new(SystemPowerModel::paper());
        reference.begin_window();
        reference.push_sample_set(set);
        assert_eq!(
            batch_bits(&est),
            batch_bits(&reference),
            "raw window {seq}: wire row must match in-memory extraction"
        );
    }
}

/// Every frame of `wire` as `(type, layout events, event count)`: a
/// layout frame's declared events (decoded from its payload), and each
/// frame's `n_events`.
fn frame_layouts(wire: &[u8]) -> Vec<(FrameType, Vec<PerfEvent>, u8)> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < wire.len() {
        let h = FrameHeader::parse(&wire[pos..]).expect("well-formed stream");
        let body = &wire[pos + h.header_len()..pos + h.frame_len()];
        let (head, payload) = BodyHead::read(body).expect("well-formed body");
        let events = match h.frame_type {
            FrameType::Layout => {
                // CPU count and decimation, then the event indices.
                let mut p = 0;
                std::iter::from_fn(|| read_uvarint(payload, &mut p))
                    .skip(2)
                    .map(|i| PerfEvent::ALL[i as usize])
                    .collect()
            }
            FrameType::Sample => Vec::new(),
        };
        out.push((h.frame_type, events, head.n_events));
        pos += h.frame_len();
    }
    out
}

#[test]
fn agents_ship_exactly_the_row_events_of_simulated_servers() {
    // Simulated 4- and 32-CPU servers program all 18 events. The agent
    // encoder announces and ships only the nine row events, in the
    // set's own order (declaration order, not `ROW_EVENTS` order); a
    // row event the set lists twice ships once; and the rows decoded
    // from those frames equal in-memory estimation of the full sets,
    // bit for bit.
    let in_set_order: Vec<PerfEvent> = PerfEvent::ALL
        .iter()
        .copied()
        .filter(|e| ROW_EVENTS.contains(e))
        .collect();
    assert_ne!(in_set_order, ROW_EVENTS, "the orders differ");
    for cpus in [4usize, 32] {
        let full = simulated_window(cpus, 3);
        // The same servers with `Cycles` and `DiskInterrupts` listed a
        // second time, at the end, carrying other counts.
        let doubled: Vec<SampleSet> = full
            .iter()
            .map(|src| {
                let mut layout = src.events().to_vec();
                layout.extend([PerfEvent::Cycles, PerfEvent::DiskInterrupts]);
                let mut set = SampleSet::empty();
                set.seq = src.seq;
                let block = set.reset(layout.iter().copied(), cpus);
                block[..src.counts().len()].copy_from_slice(src.counts());
                block[src.counts().len()..].fill(123_456_789);
                set
            })
            .collect();
        for (label, sets) in [("full", &full), ("doubled", &doubled)] {
            let wire = encode_window(sets);
            let frames = frame_layouts(&wire);
            assert_eq!(frames.len(), 2 * sets.len(), "{cpus} CPUs {label}");
            for pair in frames.chunks(2) {
                assert_eq!(pair[0].0, FrameType::Layout);
                assert_eq!(pair[0].1, in_set_order, "{cpus} CPUs {label}");
                assert_eq!(pair[1].0, FrameType::Sample);
                assert_eq!(usize::from(pair[1].2), ROW_EVENTS.len());
            }
            let mut est = FleetEstimator::new(SystemPowerModel::paper());
            let report = ingest_serial(&wire, sets.len(), &mut est);
            assert_eq!(report.rows_written, sets.len() as u64);
            let (want_cols, want_totals) = in_memory_bits(sets);
            assert_eq!(batch_bits(&est), want_cols, "{cpus} CPUs {label}");
            let totals: Vec<u64> = est.estimate().total().iter().map(|v| v.to_bits()).collect();
            assert_eq!(totals, want_totals, "{cpus} CPUs {label}");
        }
        // The repeats change nothing the row reads, so nothing shipped.
        assert_eq!(encode_window(&full), encode_window(&doubled));
    }
}

#[test]
fn sample_frame_without_its_layout_is_counted_not_guessed() {
    let sets = fleet_window(1);
    let wire = encode_window(&sets);
    // Strip the leading layout frame, leaving a dangling sample frame.
    let sample_start = {
        use tdp_wire::{CursorItem, FrameCursor};
        let mut cursor = FrameCursor::new(&wire);
        match cursor.next() {
            Some(CursorItem::Frame { header, start }) => start + header.frame_len(),
            other => panic!("expected leading layout frame, got {other:?}"),
        }
    };
    let mut est = FleetEstimator::new(SystemPowerModel::paper());
    let report = ingest_serial(&wire[sample_start..], 1, &mut est);
    assert_eq!(report.unknown_layout_frames, 1);
    assert_eq!(report.rows_written, 0);
    // The machine's row stays zero rather than being misdecoded.
    assert!(est.batch().columns().iter().all(|c| c[0] == 0.0));
}

#[test]
fn a_window_that_lost_its_rows_is_never_clean() {
    // Rows can be lost with every byte intact: sample frames whose
    // layout frames never arrived, and frames from machines past the
    // fleet's count. Both losses must mark the window unhealthy.
    let wire = encode_window(&simulated_window(4, 3));
    let sample_frames_only = only(&wire, FrameType::Sample);
    let mut est = FleetEstimator::new(SystemPowerModel::paper());
    let rep = ingest_serial(&sample_frames_only, 3, &mut est);
    assert_eq!((rep.rows_written, rep.unknown_layout_frames), (0, 3));
    let health = rep.health();
    assert!(
        !health.is_clean() && health.unknown_layout_frames == 3,
        "{health}"
    );
    assert!(health.to_string().contains("unknown_layout=3"), "{health}");

    let mut est = FleetEstimator::new(SystemPowerModel::paper());
    let rep = ingest_serial(&wire, 1, &mut est);
    assert_eq!((rep.rows_written, rep.out_of_range_frames), (1, 2));
    let health = rep.health();
    assert!(
        !health.is_clean() && health.out_of_range_frames == 2,
        "{health}"
    );
    assert!(health.to_string().contains("out_of_range=2"), "{health}");
}

#[test]
fn counter_reset_is_rebaselined_not_poisoned() {
    // A machine reboots mid-stream: its window sequence rewinds to
    // zero. Counters are read-and-clear, so the post-reboot row is a
    // valid per-window delta — ingest must accept it (bit-identical to
    // in-memory extraction of the same set), count exactly one reset,
    // mark the machine Suspect, and let the next monotone window
    // restore it to Healthy. Nothing about the reboot may leak into
    // the decoded values.
    let mut state = IngestState::new();
    let mut est = FleetEstimator::new(SystemPowerModel::paper());

    for (step, seq) in [5u64, 6, 0, 1].iter().enumerate() {
        let set = synthetic_set(0, *seq, &ROW_EVENTS, false);
        let mut enc = WireEncoder::new();
        enc.push_sample_set(0, &set).unwrap();
        let rep = ingest_serial_with(&mut state, &enc.finish(), 1, &mut est);

        assert_eq!(rep.rows_written, 1, "step {step}: row must be accepted");
        assert_eq!(rep.rows_quarantined, 0);
        let expect_reset = u64::from(step == 2);
        assert_eq!(
            rep.resets_detected, expect_reset,
            "step {step}: reset counted exactly at the rewind"
        );
        let expect_state = if step == 2 {
            HealthState::Suspect
        } else {
            HealthState::Healthy
        };
        assert_eq!(state.machine_health(0), Some(expect_state), "step {step}");

        // The decoded row is the set's own delta — reboot or not.
        let mut reference = FleetEstimator::new(SystemPowerModel::paper());
        reference.begin_window();
        reference.push_sample_set(&set);
        assert_eq!(
            batch_bits(&est),
            batch_bits(&reference),
            "step {step}: reset must not distort the decoded row"
        );
    }
}

#[test]
fn persistent_state_decodes_steady_state_streams() {
    // A long-lived producer announces layouts once; every later window
    // is sample frames only. Persistent `IngestState` must decode every
    // such window fully and bit-identically to in-memory ingestion; a
    // cold decoder on the same bytes must count the frames unknown.
    let machines = 23usize;
    let mut enc = WireEncoder::new();
    let mut state = IngestState::new();
    let mut est = FleetEstimator::new(SystemPowerModel::paper());
    for seq in 0..4u64 {
        let sets: Vec<SampleSet> = (0..machines)
            .map(|m| synthetic_set(m as u64, seq, &ROW_EVENTS, false))
            .collect();
        for (id, set) in sets.iter().enumerate() {
            enc.push_sample_set(id as u64, set).unwrap();
        }
        let buf = enc.take_bytes();

        let rep = ingest_serial_with(&mut state, &buf, machines, &mut est);
        assert_eq!(rep.rows_written, machines as u64);
        assert_eq!(rep.unknown_layout_frames, 0);
        if seq > 0 {
            assert_eq!(rep.layout_frames, 0, "steady state re-announces nothing");
        }

        let (want_cols, want_totals) = in_memory_bits(&sets);
        assert_eq!(batch_bits(&est), want_cols, "window {seq}: columns");
        let totals: Vec<u64> = est.estimate().total().iter().map(|v| v.to_bits()).collect();
        assert_eq!(totals, want_totals, "window {seq}: estimates");

        if seq > 0 {
            let mut cold = FleetEstimator::new(SystemPowerModel::paper());
            let rep = ingest_serial(&buf, machines, &mut cold);
            assert_eq!(rep.unknown_layout_frames, machines as u64);
            assert_eq!(rep.rows_written, 0, "a cold decoder never guesses a layout");
        }
    }
}

#[test]
fn decimation_one_stream_is_byte_identical_to_legacy() {
    // A grant of decimation 1 is the default: an every-window stream is
    // indistinguishable from one whose machines were never granted.
    let sets = fleet_window(5);
    let mut plain = WireEncoder::new();
    let mut dec1 = WireEncoder::new();
    for (id, set) in sets.iter().enumerate() {
        dec1.set_decimation(id as u64, 1);
        plain.push_sample_set(id as u64, set).unwrap();
        dec1.push_sample_set(id as u64, set).unwrap();
    }
    assert_eq!(plain.finish(), dec1.finish());
}

#[test]
fn decimated_stream_reconstructs_bit_exactly_and_stays_healthy() {
    // Eight machines granted decimation 4 after their first window:
    // each announces the grant with a frame sent at once, then,
    // phase-staggered, two transmit per window and the other six are
    // reconstructed at their last transmitted row — bit-exactly, with
    // no row held and no health downgrade.
    const MACHINES: usize = 8;
    const DEC: u16 = 4;
    let mut enc = WireEncoder::new();
    let mut serial_state = IngestState::new();
    let mut serial_est = FleetEstimator::new(SystemPowerModel::paper());
    let mut last_sent = [0u64; MACHINES];
    for w in 0..12u64 {
        if w == 1 {
            // The control loop grants healthy machines decimation after
            // their first window; each machine announces it in-band on
            // the layout frame it sends next — at once.
            for m in 0..MACHINES as u64 {
                enc.set_decimation(m, DEC);
            }
        }
        let mut senders = 0u64;
        for m in 0..MACHINES as u64 {
            if enc.should_send(m, w) {
                enc.push_sample_set(m, &synthetic_set(m, w, &ROW_EVENTS, false))
                    .unwrap();
                last_sent[m as usize] = w;
                senders += 1;
            }
        }
        assert_eq!(
            senders,
            if w <= 1 { MACHINES as u64 } else { 2 },
            "window {w}: grants go out at once, then the phase stagger \
             spreads transmissions evenly"
        );
        let buf = enc.take_bytes();
        let serial = ingest_serial_with(&mut serial_state, &buf, MACHINES, &mut serial_est);
        assert_eq!(serial.rows_written, MACHINES as u64, "window {w}");
        assert_eq!(serial.sample_frames, senders, "window {w}");

        // Bit-exact reference: every machine's row is the in-memory
        // extraction of its last *transmitted* window.
        let mut reference = FleetEstimator::new(SystemPowerModel::paper());
        reference.begin_window();
        for (m, &sent) in last_sent.iter().enumerate() {
            reference.push_sample_set(&synthetic_set(m as u64, sent, &ROW_EVENTS, false));
        }
        assert_eq!(
            batch_bits(&serial_est),
            batch_bits(&reference),
            "window {w}"
        );

        if w >= 1 {
            // Every machine has announced its decimation, so silence is
            // protocol (reconstruction), not degradation.
            assert_eq!(
                serial.rows_reconstructed,
                MACHINES as u64 - senders,
                "window {w}"
            );
            assert_eq!(serial.rows_held, 0, "window {w}");
            assert!(
                serial.health().is_clean(),
                "window {w}: {}",
                serial.health()
            );
            for m in 0..MACHINES as u64 {
                assert_eq!(
                    serial_state.machine_health(m),
                    Some(HealthState::Healthy),
                    "window {w} machine {m}"
                );
            }
        }
    }
}

#[test]
fn decimated_silence_past_grace_goes_stale_once_then_recovers() {
    // A decimated machine that actually dies, across decimations. The
    // expected outcome of every silent window is derived here from the
    // documented three-tier rule, not from the ledger: the first dec−1
    // silent windows are reconstruction (protocol), the next
    // MAX_STALE_WINDOWS are held as Suspect (the grace), then
    // staleness — counted exactly once for the outage — until a fresh
    // row revives the machine. Rows persist in the batch: a
    // reconstructed or held window reads the last good row, a stale
    // one reads all zeros, and the revival frame's row replaces them.
    let first_row = in_memory_bits(&[synthetic_set(0, 0, &ROW_EVENTS, false)]).0;
    let revive_row = in_memory_bits(&[synthetic_set(0, 99, &ROW_EVENTS, false)]).0;
    let zero_row = vec![vec![0.0f64.to_bits()]; COLUMNS];
    for dec in [1u16, 2, 4] {
        let mut enc = WireEncoder::new();
        enc.set_decimation(0, dec);
        enc.push_sample_set(0, &synthetic_set(0, 0, &ROW_EVENTS, false))
            .unwrap();
        let first = enc.take_bytes();
        enc.push_sample_set(0, &synthetic_set(0, 99, &ROW_EVENTS, false))
            .unwrap();
        let revive = enc.take_bytes();

        let mut state = IngestState::new();
        let mut est = FleetEstimator::new(SystemPowerModel::paper());
        assert_eq!(
            ingest_serial_with(&mut state, &first, 1, &mut est).rows_written,
            1
        );

        let mut stale_events = 0u64;
        let d = u64::from(dec);
        for since in 1..=(d + MAX_STALE_WINDOWS + 3) {
            let rep = ingest_serial_with(&mut state, &[], 1, &mut est);
            let ctx = format!("dec {dec}, window {since}");
            let (written, reconstructed, held, newly, health) = if since < d {
                (1, 1, 0, 0, HealthState::Healthy)
            } else if since <= d - 1 + MAX_STALE_WINDOWS {
                (1, 0, 1, 0, HealthState::Suspect)
            } else {
                let newly = since == d + MAX_STALE_WINDOWS;
                (0, 0, 0, u64::from(newly), HealthState::Stale)
            };
            assert_eq!(rep.rows_written, written, "{ctx}");
            assert_eq!(rep.rows_reconstructed, reconstructed, "{ctx}");
            assert_eq!(rep.rows_held, held, "{ctx}");
            assert_eq!(rep.machines_stale, newly, "{ctx}");
            assert_eq!(state.machine_health(0), Some(health), "{ctx}");
            let row = if written == 1 { &first_row } else { &zero_row };
            assert_eq!(&batch_bits(&est), row, "{ctx}: batch row");
            stale_events += rep.machines_stale;
        }
        assert_eq!(stale_events, 1, "one outage, one stale count");

        let rep = ingest_serial_with(&mut state, &revive, 1, &mut est);
        assert_eq!(rep.rows_written, 1);
        assert_eq!(state.machine_health(0), Some(HealthState::Healthy));
        assert_eq!(batch_bits(&est), revive_row, "revived batch row");
    }
}

#[test]
fn a_fresh_ingest_state_starts_from_an_all_zero_batch() {
    // Rows persist in the batch across an `IngestState`'s windows, but
    // an estimator may come to a new state holding another stream's
    // rows. The new state's first window must not inherit them: a
    // machine that sent nothing reads zeros, not the old row.
    let full = encode_window(&fleet_window(4));
    let one = encode_window(&fleet_window(1));
    let want = in_memory_bits(&fleet_window(1)).0;
    let mut est = FleetEstimator::new(SystemPowerModel::paper());
    assert_eq!(
        ingest_serial_with(&mut IngestState::new(), &full, 4, &mut est).rows_written,
        4
    );
    assert!(batch_bits(&est)
        .iter()
        .all(|c| c[1..].iter().all(|&b| b != 0)));

    let rep = ingest_serial_with(&mut IngestState::new(), &one, 4, &mut est);
    assert_eq!(rep.rows_written, 1);
    for (c, (got, want)) in batch_bits(&est).iter().zip(&want).enumerate() {
        assert_eq!(got[0], want[0], "column {c}: machine 0's fresh row");
        assert_eq!(got[1..], [0; 3], "column {c}: silent machines read zero");
    }
}

#[test]
fn machines_cut_off_by_a_smaller_fleet_come_back_unseen() {
    // 8 machines, then 4, then 8 again two windows after machines 4–7
    // last sent — well within the hold bound. The cut-off machines lost
    // their row and their health history with the smaller fleet: on
    // regrowth they are neither held nor counted stale, read zero rows
    // and report no health until their next frame.
    let sets = |senders: u64, w: u64| -> Vec<SampleSet> {
        (0..senders)
            .map(|m| synthetic_set(m, w, &ROW_EVENTS, false))
            .collect()
    };
    let mut state = IngestState::new();
    let mut est = FleetEstimator::new(SystemPowerModel::paper());
    let rep = ingest_serial_with(&mut state, &encode_window(&sets(8, 0)), 8, &mut est);
    assert_eq!(rep.rows_written, 8);

    for (w, machines) in [(1, 4), (2, 8)] {
        let rep = ingest_serial_with(&mut state, &encode_window(&sets(4, w)), machines, &mut est);
        assert_eq!(rep.rows_written, 4, "window {w}");
        assert_eq!(rep.rows_held, 0, "window {w}");
        assert_eq!(rep.rows_reconstructed, 0, "window {w}");
        assert_eq!(rep.machines_stale, 0, "window {w}");
        assert!(rep.health().is_clean(), "window {w}: {}", rep.health());
        for m in 4..8 {
            assert_eq!(state.machine_health(m), None, "window {w} machine {m}");
        }
    }
    // Window 2: machines 0–3 carry this window's rows, 4–7 zeros.
    let mut want = in_memory_bits(&sets(4, 2)).0;
    for c in &mut want {
        c.resize(8, 0.0f64.to_bits());
    }
    assert_eq!(batch_bits(&est), want, "regrown batch");

    let rep = ingest_serial_with(&mut state, &encode_window(&sets(8, 3)), 8, &mut est);
    assert_eq!(rep.rows_written, 8);
    assert!(rep.health().is_clean(), "{}", rep.health());
    for m in 0..8 {
        assert_eq!(state.machine_health(m), Some(HealthState::Healthy));
    }
    assert_eq!(batch_bits(&est), in_memory_bits(&sets(8, 3)).0);
}

#[test]
fn a_machine_sending_twice_does_not_cover_a_silent_one() {
    // Two machines; in window 1 machine 0 sends two fresh windows and
    // machine 1 sends nothing. Two rows arrived for a fleet of two, but
    // machine 1 must still take the hold pass: held at its last row,
    // while machine 0 keeps the later of its two.
    let mut enc = WireEncoder::new();
    for m in 0..2 {
        enc.push_sample_set(m, &synthetic_set(m, 0, &ROW_EVENTS, false))
            .unwrap();
    }
    let first = enc.take_bytes();
    for seq in [1, 2] {
        enc.push_sample_set(0, &synthetic_set(0, seq, &ROW_EVENTS, false))
            .unwrap();
    }
    let twice = enc.take_bytes();
    let want = in_memory_bits(&[
        synthetic_set(0, 2, &ROW_EVENTS, false),
        synthetic_set(1, 0, &ROW_EVENTS, false),
    ])
    .0;
    let mut state = IngestState::new();
    let mut est = FleetEstimator::new(SystemPowerModel::paper());
    assert_eq!(
        ingest_serial_with(&mut state, &first, 2, &mut est).rows_written,
        2
    );
    let rep = ingest_serial_with(&mut state, &twice, 2, &mut est);
    assert_eq!((rep.rows_written, rep.rows_held), (3, 1));
    assert_eq!(state.machine_health(0), Some(HealthState::Healthy));
    assert_eq!(state.machine_health(1), Some(HealthState::Suspect));
    assert_eq!(batch_bits(&est), want);
}

#[test]
fn stale_machine_replaying_its_last_window_rebaselines_not_locked_out() {
    // Regression for the staleness-boundary sequence bug: a machine
    // that crossed the staleness bound and reappeared replaying its
    // last accepted window sequence used to be judged a duplicate —
    // skipped, and locked out until its producer's sequence moved — and
    // its next outage could re-count in `machines_stale`. Equal
    // sequences from a Stale machine must re-baseline as a reset.
    let mut state = IngestState::new();
    let mut est = FleetEstimator::new(SystemPowerModel::paper());
    let set = synthetic_set(0, 5, &ROW_EVENTS, false);
    let mut enc = WireEncoder::new();
    enc.push_sample_set(0, &set).unwrap();
    ingest_serial_with(&mut state, &enc.take_bytes(), 1, &mut est);

    // stale → …
    let mut stales = 0;
    for _ in 0..MAX_STALE_WINDOWS + 2 {
        stales += ingest_serial_with(&mut state, &[], 1, &mut est).machines_stale;
    }
    assert_eq!(stales, 1);
    assert_eq!(state.machine_health(0), Some(HealthState::Stale));

    // … recover by replaying the same window sequence → …
    enc.push_sample_set(0, &set).unwrap();
    let rep = ingest_serial_with(&mut state, &enc.take_bytes(), 1, &mut est);
    assert_eq!(
        rep.duplicate_windows, 0,
        "replay after staleness is not a duplicate"
    );
    assert_eq!(rep.resets_detected, 1, "it re-baselines as a reset");
    assert_eq!(rep.rows_written, 1, "and the row is accepted");
    assert_eq!(state.machine_health(0), Some(HealthState::Suspect));

    // … → stale again: the fresh outage counts exactly once more.
    let mut stales = 0;
    for _ in 0..MAX_STALE_WINDOWS + 2 {
        stales += ingest_serial_with(&mut state, &[], 1, &mut est).machines_stale;
    }
    assert_eq!(stales, 1, "a fresh outage counts once more");
}

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(length, FNV-1a)` of one encoder's stream over four windows of
/// three simulated `cpus`-CPU servers in distinct load states, with a
/// decimation grant after the second window (each grant re-announces
/// the layout on the machine's next push).
fn simulated_stream_digest(cpus: usize) -> (usize, u64) {
    let mut machines: Vec<Machine> = (0..3u64)
        .map(|m| {
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
            machine
        })
        .collect();
    let mut enc = WireEncoder::new();
    for w in 0..4 {
        if w == 2 {
            enc.set_decimation(1, 2);
            enc.set_decimation(2, 4);
        }
        for (id, machine) in machines.iter_mut().enumerate() {
            for _ in 0..40 {
                machine.tick();
            }
            enc.push_sample_set(id as u64, machine.read_counters())
                .unwrap();
        }
    }
    let wire = enc.finish();
    (wire.len(), fnv1a(&wire))
}

#[test]
fn simulated_streams_match_their_recorded_digests() {
    // Frames of real simulated counters must not move when the
    // producer's sample representation or gather changes; these values
    // pin every byte the encoder writes. They were first recorded from
    // the CPU-major per-CPU sample layout and its per-lane gather
    // (1,822 and 6,262 B, all 18 events shipped), re-recorded when the
    // encoder began shipping only the nine row events (1,277 and
    // 3,205 B: what the encoder before that change wrote for the same
    // sets with every non-row plane removed), and again when the static
    // layout fields left the sample header for the layout frame
    // (format version 3). Both streams of that last change were
    // cross-checked to decode to the same rows and decimations bit for
    // bit.
    assert_eq!(simulated_stream_digest(4), (811, 0x206a_7ca4_80bb_809f));
    assert_eq!(simulated_stream_digest(32), (2751, 0x1713_c2eb_c368_a886));
}
