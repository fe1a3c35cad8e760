//! Equivalence guarantees of the sample payload: whatever the layout,
//! CPU count (on and off every bitmap byte boundary), value range or
//! plane code (zero, dense, sparse), decoding a stream produces
//! **bit-identical** fleet rows to in-memory estimation of the same
//! windows, and ingest writes every one that passes the sanity screen;
//! a payload that breaks the format is rejected even when it
//! checksums; and a battered stream degrades under the clean-subset
//! contract.
//!
//! The layout properties encode through the stateless frame functions,
//! which ship every plane as given: the agent encoder projects each set
//! onto the row events, so only those functions put reordered non-row
//! planes in front of the decoder's skip path. The agent's projected
//! stream is checked against the same in-memory rows.

use proptest::prelude::*;
use std::collections::BTreeSet;
use tdp_counters::{PerfEvent, SampleSet};
use tdp_fleet::{FleetEstimator, COLUMNS, ROW_EVENTS};
use tdp_wire::frame::{write_frame, BodyHead, FrameType, MAX_WIRE_CPUS};
use tdp_wire::varint::put_uvarint;
use tdp_wire::{
    encode_layout_frame, encode_sample_frame, ingest_serial_with, row_is_sane, CursorItem,
    DecodeError, Decoded, FaultKind, FaultPlan, FrameCursor, FrameDecoder, IngestState,
    WireEncoder, MAX_STALE_WINDOWS,
};
use trickledown::SystemPowerModel;

/// Events a random layout draws from — trickle-down inputs plus the
/// deliberately-irrelevant alternates, so layouts of any shape appear.
const EVENT_POOL: [PerfEvent; 12] = [
    PerfEvent::Cycles,
    PerfEvent::HaltedCycles,
    PerfEvent::FetchedUops,
    PerfEvent::RetiredUops,
    PerfEvent::L2Misses,
    PerfEvent::L3LoadMisses,
    PerfEvent::TlbMisses,
    PerfEvent::BusTransactionsAll,
    PerfEvent::DmaOtherBusTransactions,
    PerfEvent::InterruptsTotal,
    PerfEvent::TimerInterrupts,
    PerfEvent::DiskInterrupts,
];

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A random layout: `n_events` distinct events from the pool, order
/// shuffled by `seed`.
fn random_layout(n_events: usize, seed: u64) -> Vec<PerfEvent> {
    let mut pool = EVENT_POOL.to_vec();
    let mut rng = seed | 1;
    for i in (1..pool.len()).rev() {
        pool.swap(i, (xorshift(&mut rng) % (i as u64 + 1)) as usize);
    }
    pool.truncate(n_events);
    pool
}

/// Builds one machine-window over `layout` with explicit per-CPU
/// counts: `counts[cpu][event]`.
fn set_from_counts(seq: u64, layout: &[PerfEvent], counts: &[Vec<u64>]) -> SampleSet {
    let mut set = SampleSet::empty();
    set.seq = seq;
    let cpus = counts.len();
    let block = set.reset(layout.iter().copied(), cpus);
    for (cpu, row) in counts.iter().enumerate() {
        for (e, &n) in row.iter().enumerate() {
            block[e * cpus + cpu] = n;
        }
    }
    set
}

/// Encodes `sets` as one window exactly as given: per machine, a
/// layout frame declaring every event of the set, then a sample frame
/// carrying every plane.
fn encode(sets: &[SampleSet]) -> Vec<u8> {
    let mut out = Vec::new();
    for (id, set) in sets.iter().enumerate() {
        encode_layout_frame(&mut out, id as u64, 0, set).unwrap();
        encode_sample_frame(&mut out, id as u64, 0, set).unwrap();
    }
    out
}

/// Encodes `sets` as one window through the agent encoder, which
/// ships each set's row projection.
fn encode_agent(sets: &[SampleSet]) -> Vec<u8> {
    let mut enc = WireEncoder::new();
    for (id, set) in sets.iter().enumerate() {
        enc.push_sample_set(id as u64, set).unwrap();
    }
    enc.finish()
}

fn batch_bits(est: &FleetEstimator) -> Vec<Vec<u64>> {
    est.batch()
        .columns()
        .iter()
        .map(|c| c.iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn total_bits(est: &FleetEstimator) -> Vec<u64> {
    est.estimates()
        .total()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

/// Ingests the clean stream `wire` and returns the batch bits.
fn ingested_bits(wire: &[u8], machines: usize) -> Vec<Vec<u64>> {
    let mut est = FleetEstimator::new(SystemPowerModel::paper());
    let rep = ingest_serial_with(&mut IngestState::new(), wire, machines, &mut est);
    assert_eq!(rep.corrupt_frames + rep.resyncs, 0, "clean stream");
    assert_eq!(rep.rows_written + rep.rows_quarantined, machines as u64);
    batch_bits(&est)
}

/// Batch column bits as ingest leaves them in a fresh batch: a row
/// that fails [`row_is_sane`] is quarantined, so its slot stays zero.
fn screened(mut cols: Vec<Vec<u64>>) -> Vec<Vec<u64>> {
    for m in 0..cols[0].len() {
        let row: [f64; COLUMNS] = std::array::from_fn(|c| f64::from_bits(cols[c][m]));
        if !row_is_sane(&row) {
            for col in &mut cols {
                col[m] = 0;
            }
        }
    }
    cols
}

/// Estimates `sets` in memory and returns the bits.
fn in_memory_bits(sets: &[SampleSet]) -> (Vec<Vec<u64>>, Vec<u64>) {
    let mut est = FleetEstimator::new(SystemPowerModel::paper());
    est.process_window(sets);
    (batch_bits(&est), total_bits(&est))
}

/// Every sample frame of `wire` decoded to its fleet row, as batch
/// column bits — before any sanity screen, which would quarantine
/// width-boundary counts that no machine produces.
fn decoded_bits(wire: &[u8], machines: usize) -> Vec<Vec<u64>> {
    let mut cols = vec![vec![0u64; machines]; COLUMNS];
    let mut dec = FrameDecoder::new();
    dec.grow_machines(machines);
    let cursor = FrameCursor::new(wire);
    for item in cursor.clone() {
        let CursorItem::Frame { start, header } = item else {
            panic!("clean stream resynced");
        };
        let decoded = dec.decode_frame(&header, cursor.body(start, &header));
        if let Ok(Decoded::Row {
            machine_id, row, ..
        }) = decoded
        {
            for (col, v) in cols.iter_mut().zip(row) {
                col[machine_id as usize] = v.to_bits();
            }
        } else {
            assert!(decoded.is_ok(), "clean frame rejected: {decoded:?}");
        }
    }
    cols
}

/// Width-boundary constants every plane-width decision pivots on.
const BOUNDARIES: [u64; 17] = [
    0,
    (1 << 7) - 1,
    1 << 7,
    (1 << 8) - 1,
    1 << 8,
    (1 << 15) - 1,
    1 << 15,
    (1 << 16) - 1,
    1 << 16,
    (1 << 31) - 1,
    1 << 31,
    (1 << 32) - 1,
    1u64 << 32,
    // Sign-bit neighbourhood: consecutive counts drawn from here and
    // from the small classes produce CPU-over-CPU deltas at the
    // i64::MIN/i64::MAX zigzag extremes.
    (1u64 << 63) - 1,
    1u64 << 63,
    (1u64 << 63) + 1,
    u64::MAX,
];

/// A count that lands on every interesting plane-width boundary with
/// decent probability, alongside uniform draws from each width class.
fn boundary_value() -> impl Strategy<Value = u64> {
    (any::<u64>(), 0u64..21).prop_map(|(raw, pick)| match pick {
        p if (p as usize) < BOUNDARIES.len() => BOUNDARIES[p as usize],
        17 => raw & 0xff,
        18 => raw & 0xffff,
        19 => raw & 0xffff_ffff,
        _ => raw,
    })
}

/// CPU counts the proptest draws from: both sides of each bitmap byte
/// boundary (8 and 9 CPUs are 7 and 8 lanes), a 4-way server, and
/// wide servers.
const CPU_COUNTS: [usize; 9] = [1, 2, 3, 4, 8, 9, 17, 32, 33];

proptest! {
    /// Core property: for any layout shape, CPU count and value mix —
    /// values straddling every width boundary, which induce deltas of
    /// every zigzag width, and per machine-event a plane mode that
    /// makes it dense, sparse (most CPUs repeat their predecessor's
    /// count) or zero (every CPU does) — every frame decodes to the
    /// fleet row in-memory estimation computes, bit for bit, and
    /// ingest writes exactly the rows that pass the sanity screen.
    #[test]
    fn wire_ingest_matches_in_memory_bit_identically(
        machines in 1usize..6,
        cpus in (0..CPU_COUNTS.len()).prop_map(|i| CPU_COUNTS[i]),
        n_events in 1usize..10,
        layout_seed in any::<u64>(),
        modes in prop::collection::vec(0u8..3, 6 * 10),
        values in prop::collection::vec((boundary_value(), any::<u8>()), 6 * 33 * 10),
    ) {
        let layout = random_layout(n_events, layout_seed);
        let sets: Vec<SampleSet> = (0..machines)
            .map(|m| {
                let mut counts: Vec<Vec<u64>> = Vec::with_capacity(cpus);
                for cpu in 0..cpus {
                    let row = (0..n_events)
                        .map(|e| {
                            let (v, coin) = values[(m * 33 + cpu) * 10 + e];
                            let fresh = match modes[m * 10 + e] {
                                0 => true,
                                1 => coin < 40,
                                _ => false,
                            };
                            if cpu == 0 || fresh { v } else { counts[cpu - 1][e] }
                        })
                        .collect();
                    counts.push(row);
                }
                set_from_counts(0, &layout, &counts)
            })
            .collect();

        let want = in_memory_bits(&sets).0;
        let wire = encode(&sets);
        prop_assert_eq!(decoded_bits(&wire, machines), want.clone());
        prop_assert_eq!(ingested_bits(&wire, machines), screened(want.clone()));
        let projected = encode_agent(&sets);
        prop_assert!(projected.len() <= wire.len());
        prop_assert_eq!(decoded_bits(&projected, machines), want);
    }
}

#[test]
fn width_boundary_deltas_roundtrip_bit_identically() {
    // Hand-placed CPU-over-CPU deltas at every signed width boundary:
    // ±2^7, ±2^15, ±2^31 and their neighbours, the exact points where
    // the encoder steps its per-plane byte width. Chains start high or
    // at zero so both underflow wrapping and plain arithmetic appear.
    let deltas: [i64; 21] = [
        0,
        1,
        -1,
        (1 << 7) - 1,
        -(1 << 7),
        1 << 7,
        -(1 << 7) - 1,
        (1 << 15) - 1,
        -(1 << 15),
        1 << 15,
        -(1 << 15) - 1,
        (1 << 31) - 1,
        -(1i64 << 31),
        1 << 31,
        -(1i64 << 31) - 1,
        (1i64 << 32) - 1,
        -(1i64 << 32),
        i64::MAX,
        // The zigzag extremes: i64::MIN encodes to u64::MAX, the one
        // delta a sign-magnitude width pick would underprice.
        i64::MIN,
        i64::MIN + 1,
        -i64::MAX,
    ];
    let bases: [u64; 7] = [
        0,
        (1 << 8) - 1,
        1 << 16,
        (1 << 32) - 1,
        1 << 40,
        u64::MAX,
        1 << 63,
    ];
    let cpus = 4usize;
    // 3 deltas per 4-CPU chain; 21 deltas need 7 events, matching the
    // base list so every base width appears too.
    let layout = random_layout(7, 7);
    let counts: Vec<Vec<u64>> = (0..cpus)
        .map(|cpu| {
            (0..layout.len())
                .map(|e| {
                    let mut v = bases[e];
                    for d in deltas.iter().skip(e * 3).take(cpu) {
                        v = v.wrapping_add(*d as u64);
                    }
                    v
                })
                .collect()
        })
        .collect();
    let sets = [set_from_counts(0, &layout, &counts)];

    let wire = encode(&sets);
    let want = in_memory_bits(&sets).0;
    assert_eq!(decoded_bits(&wire, 1), want);
    assert_eq!(ingested_bits(&wire, 1), screened(want));
}

/// Decodes, for machine 0, a layout frame declaring `events` on `cpus`
/// CPUs and then a checksummed sample frame carrying `payload`: the
/// first error, if either frame has one.
fn decode_pair(
    dec: &mut FrameDecoder,
    events: &[PerfEvent],
    cpus: usize,
    payload: &[u8],
) -> Result<(), DecodeError> {
    let head = BodyHead {
        machine_id: 0,
        window_seq: 1,
        epoch: 0,
        n_events: events.len() as u8,
    };
    let mut wire = Vec::new();
    write_frame(&mut wire, FrameType::Layout, &head, |b| {
        for field in [cpus as u64, 1]
            .into_iter()
            .chain(events.iter().map(|e| e.index() as u64))
        {
            put_uvarint(b, field);
        }
    });
    write_frame(&mut wire, FrameType::Sample, &head, |b| {
        b.extend_from_slice(payload)
    });
    let cursor = FrameCursor::new(&wire);
    for item in cursor.clone() {
        let CursorItem::Frame { start, header } = item else {
            panic!("resync in a well-framed pair");
        };
        dec.decode_frame(&header, cursor.body(start, &header))?;
    }
    Ok(())
}

#[test]
fn malformed_payloads_are_rejected_even_when_they_checksum() {
    // Two events, the first a row event (unfolded) and the second not
    // (skipped), so every defect is met on both walks.
    let events = [PerfEvent::Cycles, PerfEvent::L2Misses];
    let mut dec = FrameDecoder::new();
    dec.grow_machines(1);

    // Four CPUs (three lanes, one bitmap byte): event 0 a 1-byte base
    // and a sparse 1-byte plane with lanes 1 and 3 set; event 1 a zero
    // base and a dense 2-byte plane.
    let good: Vec<u8> = vec![0x80, 0x14, 7, 0b101, 2, 4, 1, 0, 2, 0, 3, 0];
    let decode = |dec: &mut FrameDecoder, cpus: usize, payload: &[u8]| {
        decode_pair(dec, &events, cpus, payload)
    };
    assert_eq!(
        decode(&mut dec, 4, &good),
        Ok(()),
        "the well-formed payload"
    );
    // Every event on both walks: swap the two events' roles.
    let swapped: Vec<u8> = vec![0x14, 0x80, 7, 1, 0, 2, 0, 3, 0, 0b101, 2, 4];
    assert_eq!(decode(&mut dec, 4, &swapped), Ok(()), "the swapped payload");

    let mut cases: Vec<(&str, usize, Vec<u8>)> = Vec::new();
    // Illegal base codes (5, 8, 12) and plane codes (5, 6, 7, 12, 15),
    // each beside a legal nibble, in either directory byte.
    for at in [0, 1] {
        for nibble in [0x05, 0x08, 0x0c, 0x50, 0x60, 0x70, 0xc0, 0xf0] {
            for payload in [&good, &swapped] {
                let mut bad = payload.clone();
                let keep = if nibble & 0x0f != 0 { 0xf0 } else { 0x0f };
                bad[at] = nibble | (bad[at] & keep);
                cases.push(("illegal nibble", 4, bad));
            }
        }
    }
    let mut past = good.clone();
    past[3] |= 0b1000;
    cases.push(("bitmap bit past the last lane", 4, past));
    let mut past = swapped.clone();
    past[9] |= 0b1000;
    cases.push(("skipped bitmap bit past the last lane", 4, past));
    cases.push(("truncated sparse lanes", 4, swapped[..11].to_vec()));
    let mut cut = good.clone();
    cut.remove(5);
    cases.push(("truncated sparse lanes", 4, cut));
    for payload in [&good, &swapped] {
        let mut long = payload.clone();
        long.push(0);
        cases.push(("trailing byte", 4, long));
    }
    // Zero planes price nothing, so only the bound stops a forged CPU
    // count: at the bound the layout binds, past it it does not.
    let zeros: Vec<u8> = vec![0x40, 0x40, 9, 9];
    assert_eq!(decode(&mut dec, MAX_WIRE_CPUS, &zeros), Ok(()));
    cases.push(("CPU count past the bound", MAX_WIRE_CPUS + 1, zeros));
    for (what, cpus, payload) in cases {
        assert_eq!(
            decode(&mut dec, cpus, &payload),
            Err(DecodeError::Malformed),
            "{what}: {payload:02x?}"
        );
    }
}

/// A realistic in-range machine-window (the chaos leg needs rows that
/// pass the sanity policy, so degradation comes only from the plan).
fn sane_set(machine: u64, seq: u64) -> SampleSet {
    let layout = ROW_EVENTS;
    let mut rng = machine
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(seq)
        | 1;
    let counts: Vec<Vec<u64>> = (0..4)
        .map(|_| {
            layout
                .iter()
                .map(|&e| {
                    let r = xorshift(&mut rng);
                    let scale: u64 = match e {
                        PerfEvent::Cycles => 2_000_000_000,
                        PerfEvent::HaltedCycles => 900_000_000,
                        PerfEvent::FetchedUops => 2_500_000_000,
                        PerfEvent::L3LoadMisses => 4_000_000,
                        PerfEvent::BusTransactionsAll => 25_000_000,
                        PerfEvent::DmaOtherBusTransactions => 1_500_000,
                        PerfEvent::InterruptsTotal => 6_000,
                        PerfEvent::TimerInterrupts => 2_000,
                        _ => 900,
                    };
                    scale / 2 + r % scale.max(1)
                })
                .collect()
        })
        .collect();
    set_from_counts(seq, &layout, &counts)
}

#[test]
fn faulted_planar_stream_upholds_the_clean_subset_invariant() {
    // The chaos contract over a 4-CPU fleet: bit flips are
    // caught by the checksum, framing damage resyncs, and machines
    // untouched by any fault within the staleness horizon estimate
    // bit-identically to a fault-free planar run.
    const MACHINES: usize = 16;
    const WINDOWS: u64 = 10;
    let plan = FaultPlan::new(0x00c0_ffee);

    let mut clean_enc = WireEncoder::new();
    let mut fault_enc = WireEncoder::new();
    let mut clean_state = IngestState::new();
    let mut fault_state = IngestState::new();
    let mut clean_est = FleetEstimator::new(SystemPowerModel::paper());
    let mut fault_est = FleetEstimator::new(SystemPowerModel::paper());
    let horizon = MAX_STALE_WINDOWS as usize + 1;
    let mut recent: Vec<BTreeSet<u64>> = Vec::new();
    let (mut flips_seen, mut framing_seen) = (0u64, 0u64);

    for w in 0..WINDOWS {
        let encode = |enc: &mut WireEncoder| {
            for m in 0..MACHINES as u64 {
                enc.push_sample_set(m, &sane_set(m, w)).unwrap();
            }
            enc.take_bytes()
        };
        let clean_buf = encode(&mut clean_enc);
        let fault_src = encode(&mut fault_enc);
        assert_eq!(clean_buf, fault_src, "encoding is deterministic");

        // Window 0 delivers the layouts intact; later windows burn.
        let faulted = (w > 0).then(|| plan.apply(w, &fault_src));
        let buf = faulted
            .as_ref()
            .map_or(fault_src.clone(), |f| f.bytes.clone());
        recent.push(
            faulted
                .as_ref()
                .map(|f| f.affected.clone())
                .unwrap_or_default(),
        );

        ingest_serial_with(&mut clean_state, &clean_buf, MACHINES, &mut clean_est);
        let rep = ingest_serial_with(&mut fault_state, &buf, MACHINES, &mut fault_est);
        if let Some(f) = &faulted {
            // Every destructive fault must land in its health counter.
            flips_seen += f.count(FaultKind::BitFlip);
            framing_seen += f.count(FaultKind::GarbageInsert) + f.count(FaultKind::TruncateTail);
            assert!(
                rep.corrupt_frames >= f.count(FaultKind::BitFlip),
                "window {w}: bit flips slipped past the checksum"
            );
            assert!(
                rep.resyncs >= f.count(FaultKind::GarbageInsert) + f.count(FaultKind::TruncateTail),
                "window {w}: framing damage did not resync"
            );
            assert!(
                rep.rows_quarantined >= f.count(FaultKind::RateSpike),
                "window {w}: spiked rows were not quarantined"
            );
            assert!(
                rep.resets_detected + rep.duplicate_windows
                    >= f.count(FaultKind::SeqReset) + f.count(FaultKind::DuplicateFrame),
                "window {w}: sequence faults went unaccounted"
            );
        }

        let clean_e = clean_est.estimate();
        let fault_e = fault_est.estimate();
        let dirty: BTreeSet<u64> = recent
            .iter()
            .rev()
            .take(horizon)
            .flatten()
            .copied()
            .collect();
        for m in 0..MACHINES {
            if dirty.contains(&(m as u64)) {
                continue;
            }
            assert_eq!(
                fault_e.total()[m].to_bits(),
                clean_e.total()[m].to_bits(),
                "window {w}: clean machine {m} diverged under chaos"
            );
        }
    }
    assert!(
        flips_seen + framing_seen > 0,
        "the plan must actually have exercised checksum and resync paths"
    );
}

/// A sane machine-window whose counter magnitudes are scaled by
/// `magnitude`: rates (count / cycles) stay in the sanity envelope
/// while the plane widths step through entirely different directory
/// bytes.
fn scaled_set(machine: u64, seq: u64, magnitude: u64) -> SampleSet {
    let mut rng = machine
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(seq)
        .wrapping_add(magnitude.wrapping_mul(0x6a09_e667_f3bc_c909))
        | 1;
    let counts: Vec<Vec<u64>> = (0..4)
        .map(|_| {
            ROW_EVENTS
                .iter()
                .map(|&e| {
                    let r = xorshift(&mut rng);
                    let scale: u64 = match e {
                        PerfEvent::Cycles => 2_000_000,
                        PerfEvent::HaltedCycles => 900_000,
                        PerfEvent::FetchedUops => 2_500_000,
                        PerfEvent::L3LoadMisses => 4_000,
                        PerfEvent::BusTransactionsAll => 25_000,
                        PerfEvent::DmaOtherBusTransactions => 1_500,
                        PerfEvent::InterruptsTotal => 600,
                        PerfEvent::TimerInterrupts => 200,
                        _ => 90,
                    };
                    let scale = scale.saturating_mul(magnitude);
                    scale / 2 + r % scale.max(1)
                })
                .collect()
        })
        .collect();
    set_from_counts(seq, &ROW_EVENTS, &counts)
}

/// The decimation × width-change regression: adaptive sampling
/// (phase-staggered skipped windows), a mid-run directory change, and
/// a window-sequence reset all land in one stream — and ingest must
/// match in-memory estimation of each machine's last sent window, row
/// for row, window for window, with no row ever held.
#[test]
fn decimated_stream_with_width_change_and_seq_reset_matches_in_memory() {
    const MACHINES: usize = 8;
    const WINDOWS: u64 = 24;
    /// Window where machine 3's counter magnitudes jump three decades
    /// (every plane width changes).
    const WIDTH_JUMP_AT: u64 = 10;
    /// Window where machine 5's producer reboots (window_seq restarts
    /// from 0 — the ledger re-baselines it as a reset).
    const RESET_AT: u64 = 15;

    let mut enc = WireEncoder::new();
    // Mixed negotiated decimations: every-window, every-2nd, every-4th.
    for m in 0..MACHINES as u64 {
        enc.set_decimation(m, [1u16, 1, 2, 2, 4, 4, 4, 1][m as usize]);
    }

    let mut state = IngestState::new();
    let mut est = FleetEstimator::new(SystemPowerModel::paper());
    let mut last_sent: Vec<Option<SampleSet>> = vec![None; MACHINES];
    let mut resets_seen = 0u64;

    for w in 0..WINDOWS {
        for (m, last) in last_sent.iter_mut().enumerate() {
            let m = m as u64;
            let seq = if m == 5 && w >= RESET_AT {
                w - RESET_AT
            } else {
                w
            };
            if !enc.should_send(m, seq) {
                continue;
            }
            let magnitude = if m == 3 && w >= WIDTH_JUMP_AT {
                1_000_000
            } else {
                1_000
            };
            let set = scaled_set(m, seq, magnitude);
            enc.push_sample_set(m, &set).unwrap();
            *last = Some(set);
        }
        let rep = ingest_serial_with(&mut state, &enc.take_bytes(), MACHINES, &mut est);
        est.estimate();
        assert_eq!(rep.rows_written, MACHINES as u64, "window {w}");
        assert_eq!(rep.rows_held, 0, "window {w}: a row was held");
        let sets: Vec<SampleSet> = last_sent.iter().flatten().cloned().collect();
        assert_eq!(
            (batch_bits(&est), total_bits(&est)),
            in_memory_bits(&sets),
            "window {w}: wire rows diverged from in-memory estimation"
        );
        resets_seen += rep.resets_detected;
    }
    // Machine 5's rebooted counter transmits again (decimation phase)
    // a window after RESET_AT; the reset must not go unnoticed.
    assert!(resets_seen >= 1, "the seq reset was never detected");
}
